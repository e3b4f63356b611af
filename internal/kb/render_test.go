package kb

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
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
	renderVars = []term.Term{term.Var("X"), term.Var("Y"), term.Var("Z"), term.Var("W")}
	// A symbol made through kdb.Sym or decoded from disk may hold any
	// text: "a, b" and "a)b" render a prefix of a line's next bytes after
	// "a", "a b" and "a!" a byte below ',', "a\nb" a line's separator, and
	// "3" and "1e+21" render as the numbers 3 and 1e21 do.
	renderSymbols = []struct {
		s     string
		shape string
	}{
		{"a", ""}, {"b", ""}, {"ann", ""}, {"n0001", ""}, {"n0010", ""}, {"zed", ""}, {"a_b", ""},
		{"a, b", "symbol-comma-space"}, {"a)b", "symbol-paren"},
		{"a b", "symbol-below-comma"}, {"a!", "symbol-below-comma"}, {"a\nb", "symbol-newline"},
		{"3", "symbol-like-number"}, {"1e+21", "symbol-like-number"},
	}
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
		sym := renderSymbols[rng.Intn(len(renderSymbols))]
		if sym.shape != "" {
			shapes[sym.shape] = true
		}
		return term.Sym(sym.s)
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

	// One case in twelve, one in three without variables, binds a
	// variable the subject does not show: two answers may then render
	// the same line, and a subject without variables may have many.
	if rng.Intn(12) == 0 || len(vars) == 0 && rng.Intn(3) == 0 {
		vars = append(vars, term.Var("V"))
		shapes["var-outside-subject"] = true
	}
	want := []int{0, 1, 2 + rng.Intn(60)}[rng.Intn(3)]
	if len(vars) == 0 {
		want = min(want, 1) // a ground subject has one answer or none
	}
	// Four cases in nine draw hundreds of answers, in one of three
	// layouts: the first and last columns a constant per answer; every
	// column a handful of constants or one of 60 more, under 256 in all,
	// so that every column is ranked; or the first a handful, the second a
	// distinct term per answer where now and then a symbol renders like
	// the number or string before it (Sym("0.25") after Num(0.25)), and
	// the rest drawn as usual.
	bulk := rng.Intn(9)
	var pools [][]term.Term
	if bulk < 4 && len(vars) > 0 {
		bulk = min(bulk, 2)
		want = 500 + rng.Intn(300)
		pools = make([][]term.Term, len(vars))
		for i := range pools {
			for range 1 + rng.Intn(12) {
				pools[i] = append(pools[i], genConst(rng, shapes))
			}
			// Half the pools hold two terms of different kinds that
			// render alike, which must rank equal.
			if rng.Intn(2) == 0 {
				alike := [][]term.Term{{term.Sym("3"), term.Num(3)}, {term.Sym("1e+21"), term.Num(1e21)}}
				pools[i] = append(pools[i], alike[rng.Intn(2)]...)
			}
			// Half hold a symbol and one that extends it with the bytes
			// a line has after a column, which ranks cannot order.
			if rng.Intn(2) == 0 {
				pools[i] = append(pools[i], term.Sym("a"), term.Sym([]string{"a, b", "a, b", "a)b"}[rng.Intn(3)]))
			}
		}
	}
	res := &eval.Result{Vars: vars}
	seen := map[string]bool{}
	for tries := 0; len(res.Tuples) < want && tries < 4*want; tries++ {
		tup := make(storage.Tuple, len(vars))
		for i := range tup {
			last := i == len(tup)-1
			switch {
			case pools == nil, bulk == 2 && i > 1:
				tup[i] = genConst(rng, shapes)
			case bulk == 0 && (i == 0 || last):
				tup[i] = uniqueConst(tries)
			case bulk == 1 && rng.Intn(2) == 0:
				tup[i] = uniqueConst(rng.Intn(60))
			case bulk == 2 && i == 1:
				tup[i] = uniqueConst(tries)
				if tries%7 == 6 && tries%3 != 1 {
					// A symbol rendering as the number or string before.
					tup[i] = term.Sym(uniqueConst(tries - 1).String())
				}
			default:
				tup[i] = pools[i][rng.Intn(len(pools[i]))]
			}
		}
		if k := tup.Key(); !seen[k] {
			seen[k] = true
			res.Tuples = append(res.Tuples, tup)
		}
	}
	if bulk == 2 && len(vars) > 1 {
		shapes["distinct-second-column"] = true
	}
	markColumnShapes(subject, res, shapes)
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

// uniqueConst is the k-th of a sequence of distinct constants of every
// kind.
func uniqueConst(k int) term.Term {
	switch k % 3 {
	case 0:
		return term.Sym(fmt.Sprintf("n%d", k))
	case 1:
		return term.Num(float64(k) / 4)
	default:
		return term.Str(fmt.Sprintf("s %d", k))
	}
}

// markColumnShapes records what the subject's columns hold — each
// variable at its first occurrence, followed in a line by ',', ')', the
// infix layout's ' ' or the line's end: two distinct constants that
// render alike before a later column, one rendering that is a proper
// prefix of another's once both are followed by that byte, a first
// column with a constant per answer, a few constants over hundreds of
// answers, and infix subjects with many answers.
func markColumnShapes(subject term.Atom, res *eval.Result, shapes map[string]bool) {
	infix := len(subject.Args) == 2 && term.IsComparisonPred(subject.Pred)
	type column struct{ j, next int }
	var cols []column
	for pos, t := range subject.Args {
		j := slices.Index(res.Vars, t)
		if !t.IsVar() || j < 0 || slices.ContainsFunc(cols, func(c column) bool { return c.j == j }) {
			continue
		}
		next := int(',')
		switch {
		case infix && pos == 0:
			next = ' '
		case infix:
			next = -1
		case pos == len(subject.Args)-1:
			next = ')'
		}
		cols = append(cols, column{j, next})
	}
	n := len(res.Tuples)
	if infix && n >= 100 {
		shapes["infix-many"] = true
	}
	if len(cols) == 0 && n > 1 {
		shapes["no-column-many"] = true
	}
	// Fewer than 256 constants in every column: each repeats in any
	// sample of 256 answers, and the answers are ranked.
	if n >= 500 && len(cols) > 1 && !slices.ContainsFunc(cols, func(c column) bool {
		terms := map[term.Term]bool{}
		for _, tup := range res.Tuples {
			terms[tup[c.j]] = true
		}
		return len(terms) >= 256
	}) {
		shapes["ranked-500"] = true
	}
	for k, c := range cols {
		seen := map[string]term.Term{}
		for _, tup := range res.Tuples {
			text := tup[c.j].String()
			if u, ok := seen[text]; ok && u != tup[c.j] && k < len(cols)-1 {
				shapes["equal-renderings"] = true
			}
			seen[text] = tup[c.j]
		}
		switch {
		case k == 0 && n >= 2 && len(seen) == n && len(cols) > 1:
			shapes["all-distinct-first"] = true
		case n >= 500 && len(seen) <= 16:
			shapes["few-distinct-500"] = true
		}
		if c.next < 0 {
			continue
		}
		// Sorted, a rendering that is a prefix of another is a prefix of
		// the one after it.
		keys := make([]string, 0, len(seen))
		for text := range seen {
			keys = append(keys, text+string(rune(c.next)))
		}
		sort.Strings(keys)
		for i := 1; i < len(keys); i++ {
			if strings.HasPrefix(keys[i], keys[i-1]) {
				shapes["prefix-hazard"] = true
			}
		}
	}
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
	t.Logf("shapes: %v", seen)
	// Shape coverage: a generator change that stops producing a shape
	// must fail here, not silently narrow the test.
	for _, s := range []string{
		"constant-among-vars", "repeated-var", "ground", "zero-arity", "infix",
		"negative", "fraction", "exponent",
		"quoted-space", "quoted-quote", "quoted-backslash", "non-ascii", "below-comma",
		"0-answers", "1-answer", "many-answers",
		"symbol-comma-space", "symbol-paren", "symbol-below-comma", "symbol-like-number", "symbol-newline",
		"prefix-hazard", "equal-renderings", "all-distinct-first", "few-distinct-500", "ranked-500", "infix-many",
		"distinct-second-column", "var-outside-subject", "no-column-many",
	} {
		if seen[s] == 0 {
			t.Errorf("no generated case has shape %q", s)
		}
	}
}

// TestRetrieveRenderAllocs: rendering a retrieve costs a fixed number
// of allocations, the same at 10 answers as at 1 000, whichever way the
// answers are ordered: a column with a constant per answer, first or
// second, sorts whole lines, and repeating columns, of symbols or of
// numbers, rank their constants. One answer costs two, the text and its
// line.
func TestRetrieveRenderAllocs(t *testing.T) {
	allocs := func(subject term.Atom, tuple func(i, n int) storage.Tuple, n int) float64 {
		res := &eval.Result{}
		for _, v := range subject.Args {
			if v.IsVar() {
				res.Vars = append(res.Vars, v)
			}
		}
		for i := 0; i < n; i++ {
			res.Tuples = append(res.Tuples, tuple(i, n))
		}
		r := &ExecResult{Retrieve: res, subject: subject}
		return testing.AllocsPerRun(20, func() {
			r.text, r.lines = "", nil
			_ = r.String()
			_ = r.RetrieveLines()
		})
	}
	path := term.NewAtom("path", term.Var("X"), term.Var("Y"))
	student := term.NewAtom("student", term.Sym("s"), term.Var("M"), term.Var("G"))
	for _, tc := range []struct {
		name    string
		subject term.Atom
		tuple   func(i, n int) storage.Tuple
		ceiling float64
	}{
		{"distinct first column", path, func(i, n int) storage.Tuple {
			return storage.Tuple{term.Sym(fmt.Sprintf("n%04d", i)), term.Sym(fmt.Sprintf("n%04d", (i*7919)%n))}
		}, 8},
		{"distinct second column", path, func(i, n int) storage.Tuple {
			return storage.Tuple{term.Sym(fmt.Sprintf("n%04d", i%7)), term.Sym(fmt.Sprintf("n%04d", i))}
		}, 8},
		{"repeating columns", path, func(i, n int) storage.Tuple {
			return storage.Tuple{term.Sym(fmt.Sprintf("n%04d", i/5)), term.Sym(fmt.Sprintf("n%04d", i%5))}
		}, 8},
		{"numeric column", student, func(i, n int) storage.Tuple {
			return storage.Tuple{term.Sym(fmt.Sprintf("m%03d", i/5)), term.Num(float64(1000+i%5) + 0.5)}
		}, 8},
	} {
		small, large := allocs(tc.subject, tc.tuple, 10), allocs(tc.subject, tc.tuple, 1000)
		t.Logf("%s: %v allocations at 10 answers, %v at 1000", tc.name, small, large)
		if small != large || large > tc.ceiling {
			t.Errorf("%s: %v allocations at 10 answers, %v at 1000; want equal and ≤ %v", tc.name, small, large, tc.ceiling)
		}
	}
	one := allocs(student, func(int, int) storage.Tuple {
		return storage.Tuple{term.Sym("math"), term.Num(3.5)}
	}, 1)
	t.Logf("one answer: %v allocations", one)
	if one > 6 {
		t.Errorf("one answer: %v allocations, want ≤ 6", one)
	}
}

// TestRetrieveRenderBytes: rendering the 5 050 answers of a 101-node
// chain's closure for String allocates 193 666 bytes (MemStats
// TotalAlloc, 20 renders), against 393 367 when every line was rendered
// into a buffer, the spans sorted and the lines sliced at once: the
// buffer and the spans are gone, the ranking keeps a column's distinct
// constants once, and the lines wait for RetrieveLines. The ceiling lies
// halfway between the two, so the test fails when half the saving is
// lost, not when a toolchain moves the count by a few bytes.
func TestRetrieveRenderBytes(t *testing.T) {
	const measured, before = 193666, 393367
	k := chainKB(t, 101)
	res, err := k.ExecStringContext(context.Background(), `retrieve path(X, Y).`)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Retrieve.Tuples); n != 5050 {
		t.Fatalf("%d answers, want 5050", n)
	}
	const runs = 20
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range runs {
		r := *res
		r.text, r.lines = "", nil
		_ = r.String()
	}
	runtime.ReadMemStats(&m1)
	got := (m1.TotalAlloc - m0.TotalAlloc) / runs
	t.Logf("5050 closure answers: %d bytes per render", got)
	if ceiling := uint64(measured+before) / 2; got > ceiling {
		t.Errorf("5050 closure answers: %d bytes per render, ceiling %d", got, ceiling)
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
