package lint

import (
	"regexp"
	"strings"
	"testing"
)

// wantRe matches `want "regex"` clauses in fixture comments, in the
// style of golang.org/x/tools/go/analysis/analysistest.
var wantRe = regexp.MustCompile(`want "((?:[^"\\]|\\.)*)"`)

// runGolden loads the fixture package at dir (relative to the module
// root, e.g. "internal/lint/testdata/src/errwrap/internal/storage"),
// runs the analyzers, and matches the diagnostics against `// want
// "regex"` comments: every diagnostic must be expected on its line,
// and every expectation must fire.
func runGolden(t *testing.T, dir string, analyzers ...*Analyzer) {
	t.Helper()
	root, err := ModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, "./"+dir)
	if err != nil {
		t.Fatal(err)
	}
	var target *Package
	for _, p := range pkgs {
		if strings.HasSuffix(p.Dir, "/"+dir) || p.Dir == dir {
			target = p
		}
	}
	if target == nil {
		t.Fatalf("fixture package %s not among loaded targets", dir)
	}
	diags, err := Run([]*Package{target}, analyzers)
	if err != nil {
		t.Fatal(err)
	}

	type key struct {
		file string
		line int
	}
	wants := map[key][]*regexp.Regexp{}
	for _, f := range target.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("bad want regexp %q: %v", m[1], err)
					}
					pos := target.Fset.Position(c.Pos())
					k := key{pos.Filename, pos.Line}
					wants[k] = append(wants[k], re)
				}
			}
		}
	}

	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line}
		matched := false
		rest := wants[k][:0:0]
		for _, re := range wants[k] {
			if !matched && re.MatchString(d.Message) {
				matched = true
				continue
			}
			rest = append(rest, re)
		}
		wants[k] = rest
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, res := range wants {
		for _, re := range res {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, re)
		}
	}
	if t.Failed() {
		var all []string
		for _, d := range diags {
			all = append(all, d.String())
		}
		t.Logf("all diagnostics:\n%s", strings.Join(all, "\n"))
	}
}

// loadRepo loads the entire module once per test binary.
func loadRepo(t *testing.T) []*Package {
	t.Helper()
	root, err := ModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// TestRepoClean is the self-lint gate: the full analyzer suite must
// report zero findings over the repo itself. A failure here means a
// change broke one of the engine's machine-checked invariants (or
// needs an annotation making the exception explicit).
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping full-module load")
	}
	pkgs := loadRepo(t)
	diags, err := Run(pkgs, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Errorf("the analyzers report %d finding(s) on the repo; rerun with `go test -run TestRepoClean ./internal/lint`", len(diags))
	}
}

// TestAnalyzerMetadata: every analyzer has a unique name (diagnostics
// carry it) and a Run, and the suite is the two DESIGN §5h describes.
func TestAnalyzerMetadata(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range All() {
		if a.Name == "" || a.Run == nil {
			t.Errorf("analyzer %+v incomplete", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %s", a.Name)
		}
		seen[a.Name] = true
	}
	if len(seen) != 2 {
		t.Errorf("want 2 analyzers, have %d", len(seen))
	}
}
