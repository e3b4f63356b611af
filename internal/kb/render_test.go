package kb

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"kdb/internal/eval"
	"kdb/internal/storage"
	"kdb/internal/term"
)

// oracleRender is the retrieve rendering as the engine did it before
// answers were laid out in one buffer: an atom per answer, a string per
// atom, sort.Strings, then strings.Join. It is kept verbatim as the
// reference the buffer rendering must match byte for byte.
func oracleRender(r *ExecResult) (string, []string) {
	if len(r.Retrieve.Tuples) == 0 {
		return "no answers", nil
	}
	atoms := r.Retrieve.Atoms(r.subject)
	lines := make([]string, len(atoms))
	for i, a := range atoms {
		lines[i] = a.String()
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n"), lines
}

// renderCase is one generated retrieve result, with the shapes it
// exercises.
type renderCase struct {
	subject term.Atom
	res     *eval.Result
	shapes  []string
}

func (c renderCase) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "subject %s, vars %v, %d tuples:", c.subject, c.res.Vars, len(c.res.Tuples))
	for _, t := range c.res.Tuples {
		fmt.Fprintf(&b, "\n  %v", []term.Term(t))
	}
	return b.String()
}

var (
	renderVars    = []term.Term{term.Var("X"), term.Var("Y"), term.Var("Z"), term.Var("W")}
	renderSymbols = []string{"a", "b", "ann", "n0001", "n0010", "zed", "a_b"}
	renderNumbers = []struct {
		v     float64
		shape string
	}{
		{0, ""}, {3, ""}, {10, ""}, {-4, "negative"}, {-0.5, "negative"},
		{3.75, "fraction"}, {0.125, "fraction"}, {1e21, "exponent"},
		{-2.5e30, "exponent"}, {1e-7, "exponent"},
	}
	renderStrings = []struct {
		s     string
		shape string
	}{
		{"x5-1212", ""}, {"", ""}, {"hello world", "quoted-space"},
		{`say "hi"`, "quoted-quote"}, {`back\slash`, "quoted-backslash"},
		{"héllo", "non-ascii"}, {"日本", "non-ascii"}, {"a!b", "below-comma"},
		{"tab\there", "quoted-backslash"}, {"a#", "below-comma"}, {"a", ""},
	}
)

// genConst draws a constant: a symbol, a number or a quoted string.
func genConst(rng *rand.Rand, shapes map[string]bool) term.Term {
	switch rng.Intn(3) {
	case 0:
		return term.Sym(renderSymbols[rng.Intn(len(renderSymbols))])
	case 1:
		n := renderNumbers[rng.Intn(len(renderNumbers))]
		if n.shape != "" {
			shapes[n.shape] = true
		}
		return term.Num(n.v)
	default:
		s := renderStrings[rng.Intn(len(renderStrings))]
		if s.shape != "" {
			shapes[s.shape] = true
		}
		return term.Str(s.s)
	}
}

// genRenderCase draws a subject — constants among variables, repeated
// variables, ground, zero-arity or infix — and a duplicate-free set of
// 0, 1 or many binding tuples for its variables.
func genRenderCase(rng *rand.Rand) renderCase {
	shapes := map[string]bool{}
	subject := term.Atom{Pred: []string{"p", "answer", "honor"}[rng.Intn(3)]}
	arity := rng.Intn(5)
	if rng.Intn(8) == 0 {
		subject.Pred, arity = []string{">", "<="}[rng.Intn(2)], 2
		shapes["infix"] = true
	}
	for i := 0; i < arity; i++ {
		if rng.Intn(3) == 0 {
			subject.Args = append(subject.Args, genConst(rng, shapes))
		} else {
			subject.Args = append(subject.Args, renderVars[rng.Intn(len(renderVars))])
		}
	}
	var vars []term.Term
	for _, t := range subject.Args {
		switch {
		case !t.IsVar():
		case slices.Contains(vars, t):
			shapes["repeated-var"] = true
		default:
			vars = append(vars, t)
		}
	}
	switch {
	case arity == 0:
		shapes["zero-arity"] = true
	case len(vars) == 0:
		shapes["ground"] = true
	case len(vars) < arity:
		shapes["constant-among-vars"] = true
	}

	want := []int{0, 1, 2 + rng.Intn(60)}[rng.Intn(3)]
	if len(vars) == 0 {
		want = min(want, 1) // a ground subject has one answer or none
	}
	res := &eval.Result{Vars: vars}
	seen := map[string]bool{}
	for tries := 0; len(res.Tuples) < want && tries < 4*want; tries++ {
		tup := make(storage.Tuple, len(vars))
		for i := range tup {
			tup[i] = genConst(rng, shapes)
		}
		if k := tup.Key(); !seen[k] {
			seen[k] = true
			res.Tuples = append(res.Tuples, tup)
		}
	}
	switch len(res.Tuples) {
	case 0:
		shapes["0-answers"] = true
	case 1:
		shapes["1-answer"] = true
	default:
		shapes["many-answers"] = true
	}
	c := renderCase{subject: subject, res: res}
	for s := range shapes {
		c.shapes = append(c.shapes, s)
	}
	return c
}

// TestRetrieveRenderMatchesAtomStrings holds the one-buffer rendering of
// a retrieve to the per-atom oracle on generated results: String and
// RetrieveLines byte-identical, whichever is asked first.
func TestRetrieveRenderMatchesAtomStrings(t *testing.T) {
	seeds := 2000
	if testing.Short() {
		seeds = 300
	}
	seen := map[string]int{}
	for seed := 0; seed < seeds; seed++ {
		c := genRenderCase(rand.New(rand.NewSource(int64(seed))))
		for _, s := range c.shapes {
			seen[s]++
		}
		wantText, wantLines := oracleRender(&ExecResult{Retrieve: c.res, subject: c.subject})

		r := &ExecResult{Retrieve: c.res, subject: c.subject}
		if got := r.String(); got != wantText {
			t.Fatalf("seed %d: String() = %q, want %q\n%s", seed, got, wantText, c)
		}
		if got := r.RetrieveLines(); !slices.Equal(got, wantLines) {
			t.Fatalf("seed %d: RetrieveLines after String = %q, want %q\n%s", seed, got, wantLines, c)
		}
		r = &ExecResult{Retrieve: c.res, subject: c.subject}
		if got := r.RetrieveLines(); !slices.Equal(got, wantLines) {
			t.Fatalf("seed %d: RetrieveLines = %q, want %q\n%s", seed, got, wantLines, c)
		}
		if got := r.String(); got != wantText {
			t.Fatalf("seed %d: String() after RetrieveLines = %q, want %q\n%s", seed, got, wantText, c)
		}
	}
	// Shape coverage: a generator change that stops producing a shape
	// must fail here, not silently narrow the test.
	for _, s := range []string{
		"constant-among-vars", "repeated-var", "ground", "zero-arity", "infix",
		"negative", "fraction", "exponent",
		"quoted-space", "quoted-quote", "quoted-backslash", "non-ascii", "below-comma",
		"0-answers", "1-answer", "many-answers",
	} {
		if seen[s] == 0 {
			t.Errorf("no generated case has shape %q", s)
		}
	}
}

// TestRetrieveRenderAllocs: rendering a retrieve costs a fixed number
// of allocations, the same at 10 answers as at 1 000.
func TestRetrieveRenderAllocs(t *testing.T) {
	subject := term.NewAtom("path", term.Var("X"), term.Var("Y"))
	allocs := func(n int) float64 {
		res := &eval.Result{Vars: subject.Args}
		for i := 0; i < n; i++ {
			res.Tuples = append(res.Tuples, storage.Tuple{
				term.Sym(fmt.Sprintf("n%04d", i)), term.Sym(fmt.Sprintf("n%04d", (i*7919)%n)),
			})
		}
		r := &ExecResult{Retrieve: res, subject: subject}
		return testing.AllocsPerRun(20, func() {
			r.text, r.lines = "", nil
			_ = r.String()
			_ = r.RetrieveLines()
		})
	}
	small, large := allocs(10), allocs(1000)
	t.Logf("render allocations: %v at 10 answers, %v at 1000", small, large)
	if small != large || large > 8 {
		t.Errorf("render allocations: %v at 10 answers, %v at 1000; want equal and ≤ 8", small, large)
	}
}

// TestRetrieveRendersKnowledgeThenProfile: with intensional answering
// and profiling both on, a retrieve renders its answers, then the
// knowledge characterizing them, then the profile.
func TestRetrieveRendersKnowledgeThenProfile(t *testing.T) {
	k := loadKB(t, `s(a, 4). s(b, 3). honor(X) :- s(X, G), G > 3.5.`)
	k.SetProfiling(true)
	k.SetIntensional(true)
	res, err := k.ExecStringContext(context.Background(), `retrieve honor(X).`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Knowledge == nil || !res.Profiled() {
		t.Fatalf("knowledge %v, profiled %v: want both attached", res.Knowledge, res.Profiled())
	}
	out := res.String()
	answer := strings.Index(out, "honor(a)")
	because := strings.Index(out, "\nbecause:\n  honor(X) <- ")
	plan := strings.Index(out, "\n\nprofile: engine=")
	if answer != 0 || because < answer || plan < because {
		t.Errorf("want answers, then because:, then the profile; got\n%s", out)
	}
}
