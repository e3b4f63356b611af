// Package lint is the engine's self-analysis suite: repo-specific static
// analyzers for the invariants no test in the tree catches — lock
// discipline around the WAL, the relations and the tenant tables
// (lockcheck) and the structured-error taxonomy at package boundaries
// (errwrap). That storage touches files only through the disk seam is
// a test, storage's TestFileCallsGoThroughSeam. TestRepoClean runs every analyzer over the module inside
// `go test ./...`, so a finding fails like any other test. An analyzer
// belongs here only while no test catches what it catches; the
// invariants a test can see — allocation-free hot paths, context
// propagation, HELP text on metrics — are held by tests.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis
// (Analyzer, Pass, Reportf, analysistest-style golden corpora) but is
// built on the standard library alone — go/parser and go/types over
// export data produced by `go list -export` — because this module
// deliberately has no third-party dependencies. Porting an analyzer
// to the x/tools driver is a mechanical change of the Run signature.
//
// Annotation grammar (DESIGN §5h), read by lockcheck:
//
//	//kdb:guarded-by mu      on a struct field: accesses require mu held
//	//kdb:locked mu          on a func: caller holds mu (write mode)
//	//kdb:rlocked mu         on a func: caller holds mu (read mode)
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one invariant checker. Run inspects a single package and
// reports findings through the Pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Run executes the analyzer over one package.
	Run func(*Pass) error
}

// Pass carries one analyzed package to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Diagnostic is one finding, positioned and attributed.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// PathHasSuffix reports whether the package import path ends in one of
// the given slash-separated suffixes. A scoped analyzer (errwrap)
// matches real packages and their testdata replicas by suffix: both
// kdb/internal/storage and
// kdb/internal/lint/testdata/src/errwrap/internal/storage are "the
// storage package" to errwrap.
func (p *Pass) PathHasSuffix(suffixes ...string) bool {
	path := p.Pkg.Path()
	for _, s := range suffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// All returns every analyzer in the suite, in a stable order.
func All() []*Analyzer {
	return []*Analyzer{LockCheck, ErrWrap}
}

// Run executes the analyzers over the loaded packages and returns their
// diagnostics, sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// --- //kdb: directive helpers -------------------------------------------

// directiveArg parses one comment line of the form "//kdb:name arg".
// It returns the argument (possibly empty) and whether the directive
// is present.
func directiveArg(comment, name string) (string, bool) {
	text, ok := strings.CutPrefix(comment, "//kdb:")
	if !ok {
		return "", false
	}
	text, ok = strings.CutPrefix(text, name)
	if !ok {
		return "", false
	}
	if text != "" && text[0] != ' ' && text[0] != '\t' {
		return "", false // a longer directive name, e.g. kdb:lockedfoo
	}
	return strings.TrimSpace(text), true
}

// groupDirective scans comment groups for a //kdb:name directive and
// returns its argument.
func groupDirective(name string, groups ...*ast.CommentGroup) (string, bool) {
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if arg, ok := directiveArg(c.Text, name); ok {
				return arg, ok
			}
		}
	}
	return "", false
}

// exprPath renders a selector chain (w, s.wal, k.store) as a dotted
// path, or "" when the expression is not a pure ident/selector chain.
// Parenthesized and dereferenced forms reduce to the same path, so
// (*s).mu and s.mu agree.
func exprPath(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := exprPath(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprPath(e.X)
	case *ast.StarExpr:
		return exprPath(e.X)
	}
	return ""
}

// rootIdent returns the leftmost identifier of a selector chain.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// calleeObj resolves the called function or method object of a call,
// or nil for builtins, type conversions, and indirect calls.
func calleeObj(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// pkgPathOf returns the import path of the package an object belongs
// to, or "" for universe-scope objects.
func pkgPathOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// errorType is the universe error interface.
var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// implementsError reports whether t implements the error interface.
func implementsError(t types.Type) bool {
	if t == nil {
		return false
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsUntyped != 0 {
		return false // untyped nil and friends
	}
	return types.Implements(t, errorType)
}
