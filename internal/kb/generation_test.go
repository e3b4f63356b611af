package kb

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"kdb/internal/analysis"
	"kdb/internal/catalog"
	"kdb/internal/core"
	"kdb/internal/depgraph"
	"kdb/internal/eval"
	"kdb/internal/governor"
	"kdb/internal/parser"
	"kdb/internal/term"
)

// The differential net under the generation value. Whatever the KB keeps
// per load — the dependency graph, the analysis report, the prepared rule
// set, the describer — must answer exactly as a fresh build from the
// rules the KB reports (k.Rules()) does: retrieve against a semi-naive
// engine that prepares its own rules, describe against core.New,
// sys_rule's SCC column and Validate against depgraph.New, and a
// single-load program's diagnostics against analysis.Run over the parsed
// source. Every program is loaded whole and split over two or three loads,
// with the describe options changed between loads, so promotion, the
// accumulated program and SetDescribeOptions are all on the path.

// genShapes names what generated programs exercise; every one must come
// up across the seeds.
var genShapes = []string{
	"nonrecursive", "typed", "untyped", "mutual", "degenerate", "idb-fact", "constraint", "key",
}

// genProgram draws one program: stored facts over e/2, f/2 and g/1, and a
// random selection of rule groups, one per shape, over random base
// relations. The clauses come back shuffled, one per line.
func genProgram(r *rand.Rand) (lines []string, shapes map[string]bool) {
	consts := []string{"a", "b", "c", "d"}
	c := func() string { return consts[r.Intn(len(consts))] }
	bin := func() string { return []string{"e", "f"}[r.Intn(2)] }
	shapes = make(map[string]bool)
	for _, p := range []string{"e", "f"} {
		for i := 2 + r.Intn(4); i > 0; i-- {
			lines = append(lines, fmt.Sprintf("%s(%s, %s).", p, c(), c()))
		}
	}
	for i := 1 + r.Intn(3); i > 0; i-- {
		lines = append(lines, fmt.Sprintf("g(%s).", c()))
	}
	var idb []string // binary IDB predicates defined so far
	add := func(shape string, clauses ...string) {
		shapes[shape] = true
		lines = append(lines, clauses...)
	}
	if r.Intn(3) > 0 {
		cmp := ""
		if r.Intn(2) == 0 {
			cmp = ", X != Y"
		}
		add("nonrecursive",
			fmt.Sprintf("n(X, Y) :- %s(X, Z), %s(Z, Y)%s.", bin(), bin(), cmp),
			"h(X) :- g(X), n(X, Y).")
		idb = append(idb, "n")
	}
	if r.Intn(2) == 0 {
		add("typed",
			fmt.Sprintf("t(X, Y) :- %s(X, Y).", bin()),
			fmt.Sprintf("t(X, Y) :- %s(X, Z), t(Z, Y).", bin()))
		idb = append(idb, "t")
	}
	if r.Intn(3) == 0 {
		add("untyped",
			fmt.Sprintf("u(X, Y) :- %s(X, Y).", bin()),
			"u(X, Y) :- u(Y, X).")
		idb = append(idb, "u")
	}
	if r.Intn(3) == 0 {
		add("mutual",
			fmt.Sprintf("m(X, Y) :- %s(X, Y).", bin()),
			fmt.Sprintf("m(X, Y) :- %s(X, Z), w(Z, Y).", bin()),
			fmt.Sprintf("w(X, Y) :- %s(X, Z), m(Z, Y).", bin()))
		idb = append(idb, "m", "w")
	}
	if r.Intn(6) == 0 {
		add("degenerate", "d(X) :- g(X).", "d(X) :- d(X).")
	}
	if len(idb) > 0 && r.Intn(2) == 0 {
		add("idb-fact", fmt.Sprintf("%s(%s, %s).", idb[r.Intn(len(idb))], c(), c()))
	}
	if r.Intn(4) == 0 {
		body := fmt.Sprintf("%s(X, X), g(X)", bin())
		if len(idb) > 0 && r.Intn(2) == 0 {
			body = fmt.Sprintf("%s(X, Y), g(Y), %s(Y, X)", idb[r.Intn(len(idb))], bin())
		}
		add("constraint", ":- "+body+".")
	}
	if r.Intn(4) == 0 {
		add("key", fmt.Sprintf("@key %s/2 1.", bin()))
	}
	r.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
	return lines, shapes
}

// genOptions draws describe options. MaxNodes keeps every search small,
// and often small enough to truncate it, so answers show which options
// built the describer.
func genOptions(r *rand.Rand) core.Options {
	return core.Options{
		MaxNodes:     []int{3, 8, 20, 4000}[r.Intn(4)],
		UntypedBound: 1 + r.Intn(3),
		KeepSteps:    r.Intn(2) == 0,
	}
}

// splitLines cuts the clauses into two or three consecutive loads.
func splitLines(r *rand.Rand, lines []string) [][]string {
	if len(lines) < 3 {
		return [][]string{lines}
	}
	cuts := []int{1 + r.Intn(len(lines)-1)}
	if r.Intn(2) == 0 {
		cuts = append(cuts, 1+r.Intn(len(lines)-1))
	}
	slices.Sort(cuts)
	cuts = slices.Compact(cuts)
	var out [][]string
	from := 0
	for _, c := range append(cuts, len(lines)) {
		out = append(out, lines[from:c])
		from = c
	}
	return out
}

// checkAgainstFreshBuild holds the KB to a fresh build from k.Rules(),
// given the describe options set last. single, when not nil, is the one
// program the KB loaded.
func checkAgainstFreshBuild(t *testing.T, k *KB, opts core.Options, single *parser.Program) {
	t.Helper()
	ctx := context.Background()
	rules := k.Rules()
	g := depgraph.New(rules)

	preds := make(map[string]int)
	var order []string
	for _, r := range rules {
		if _, ok := preds[r.Head.Pred]; !ok {
			order = append(order, r.Head.Pred)
		}
		preds[r.Head.Pred] = r.Head.Arity()
	}
	subject := func(p string) term.Atom {
		args := make([]term.Term, preds[p])
		for i := range args {
			args[i] = term.Var(fmt.Sprintf("V%d", i+1))
		}
		return term.NewAtom(p, args...)
	}

	// retrieve: a semi-naive engine that prepares the rules itself.
	ref := eval.NewSemiNaive(eval.Input{Store: k.Store(), Rules: rules})
	for _, p := range order {
		s := subject(p)
		got, gerr := k.ExecContext(ctx, &parser.Retrieve{Subject: s})
		want, werr := ref.RetrieveContext(ctx, eval.Query{Subject: s})
		if (gerr != nil) != (werr != nil) {
			t.Fatalf("retrieve %v: kb error %v, fresh error %v", s, gerr, werr)
		}
		if gerr != nil {
			continue
		}
		var wl []string
		for _, a := range want.Atoms(s) {
			wl = append(wl, a.String())
		}
		slices.Sort(wl)
		if gl := got.RetrieveLines(); !slices.Equal(gl, wl) {
			t.Fatalf("retrieve %v:\n kb    %q\n fresh %q", s, gl, wl)
		}
	}

	// describe: core.New over the same rules, keys, options and
	// constraints, with the display names the KB applies.
	keys := make(map[string][][]int)
	for _, class := range []catalog.Class{catalog.ClassEDB, catalog.ClassIDB} {
		for _, p := range k.Catalog().Preds(class) {
			if len(p.Keys) > 0 {
				keys[p.Name] = p.Keys
			}
		}
	}
	dopts := opts
	dopts.Constraints = append(slices.Clone(opts.Constraints), k.Constraints()...)
	d, derr := core.New(rules, keys, dopts)
	for _, p := range order {
		s := subject(p)
		got, gerr := k.ExecContext(ctx, &parser.Describe{Subject: s})
		if derr != nil {
			if gerr == nil {
				t.Fatalf("describe %v: kb answers, fresh describer fails: %v", s, derr)
			}
			continue
		}
		want, werr := d.DescribeContext(ctx, s, nil, governor.Limits{})
		if (gerr != nil) != (werr != nil) {
			t.Fatalf("describe %v: kb error %v, fresh error %v", s, gerr, werr)
		}
		if gerr != nil {
			continue
		}
		k.applyDisplayNames(want)
		if g, w := answersText(got.Describe), answersText(want); g != w {
			t.Fatalf("describe %v:\n kb    %s\n fresh %s", s, g, w)
		}
	}

	// sys_rule: one row per rule, its SCC index from depgraph.New.
	scc := make(map[string]int)
	for i, comp := range g.SCCOrder() {
		for _, p := range comp {
			scc[p] = i
		}
	}
	var wantRows []string
	for i, r := range rules {
		wantRows = append(wantRows, term.NewAtom("sys_rule", term.Num(float64(i)), term.Sym(r.Head.Pred),
			term.Num(float64(len(r.Body))), term.Num(float64(scc[r.Head.Pred]))).String())
	}
	slices.Sort(wantRows)
	sys, err := k.ExecStringContext(ctx, "retrieve sys_rule(I, H, B, S).")
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.RetrieveLines(); !slices.Equal(got, wantRows) {
		t.Fatalf("sys_rule:\n kb    %q\n fresh %q", got, wantRows)
	}

	// Validate: the discipline of a fresh graph.
	var wantV []string
	for _, v := range g.CheckDiscipline() {
		wantV = append(wantV, v.String())
	}
	slices.Sort(wantV)
	if got := k.Validate(); !slices.Equal(got, wantV) {
		t.Fatalf("Validate:\n kb    %q\n fresh %q", got, wantV)
	}

	// A single load's diagnostics: analysis over the parsed source.
	if single != nil {
		want := analysis.Run(analysis.FromProgram(single))
		got := k.Diagnostics()
		if got.String() != want.String() || got.Profile != want.Profile {
			t.Fatalf("diagnostics:\n kb    %s%+v\n fresh %s%+v", got, got.Profile, want, want.Profile)
		}
	}
}

// answersText renders a describe answer for comparison.
func answersText(a *core.Answers) string {
	var b strings.Builder
	fmt.Fprintf(&b, "contradiction=%v truncated=%v", a.Contradiction, a.Truncated)
	for _, f := range a.Formulas {
		b.WriteString("; ")
		b.WriteString(f.String())
	}
	return b.String()
}

// loadChecked loads the chunks of one program in order, setting fresh
// describe options before each, and holds the KB to a fresh build after
// every load, so each generation is used before the next replaces it,
// then again under other describe options.
func loadChecked(t *testing.T, r *rand.Rand, chunks [][]string) {
	t.Helper()
	k := New()
	for i, chunk := range chunks {
		opts := genOptions(r)
		k.SetDescribeOptions(opts)
		src := strings.Join(chunk, "\n")
		prog, err := parser.ParseProgram(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if err := k.LoadProgram(prog); err != nil {
			t.Fatalf("load %q: %v", src, err)
		}
		if i > 0 {
			prog = nil // the KB holds more than this program
		}
		checkAgainstFreshBuild(t, k, opts, prog)
		// New options over the same generation rebuild the describer.
		opts = genOptions(r)
		k.SetDescribeOptions(opts)
		checkAgainstFreshBuild(t, k, opts, prog)
	}
}

func TestGenerationMatchesFreshBuild(t *testing.T) {
	const seeds = 300
	covered := make(map[string]bool)
	for seed := int64(1); seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			lines, shapes := genProgram(r)
			for s := range shapes {
				covered[s] = true
			}
			loadChecked(t, r, [][]string{lines})
			chunks := splitLines(r, lines)
			if len(chunks) > 1 {
				covered["split"] = true
			}
			loadChecked(t, r, chunks)
		})
	}
	for _, s := range append(genShapes, "split") {
		if !covered[s] {
			t.Errorf("no seed generated shape %q", s)
		}
	}
}

// TestGenerationMatchesFreshBuildShipped runs the same check over the
// shipped programs, whole and split.
func TestGenerationMatchesFreshBuildShipped(t *testing.T) {
	files, err := filepath.Glob("../../testdata/*.kdb")
	if err != nil || len(files) != 3 {
		t.Fatalf("shipped programs: %v, %v", files, err)
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			var lines []string
			for _, l := range strings.Split(string(src), "\n") {
				if l = strings.TrimSpace(l); l != "" && !strings.HasPrefix(l, "%") {
					lines = append(lines, l)
				}
			}
			r := rand.New(rand.NewSource(int64(len(lines))))
			loadChecked(t, r, [][]string{lines})
			for i := 0; i < 5; i++ {
				loadChecked(t, r, splitLines(r, lines))
			}
		})
	}
}
