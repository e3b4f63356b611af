package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"kdb/internal/eval"
	"kdb/internal/governor"
	"kdb/internal/parser"
	"kdb/internal/storage"
	"kdb/internal/term"
	"kdb/internal/transform"
)

// Soundness (the paper's §3.2 requirement): every answer `p ← φ` to
// `describe p where ψ` must make `p ← φ ∧ ψ` a logical consequence of
// the IDB. We model-check: over randomized EDBs, every ground binding
// satisfying φ ∧ ψ in the database's minimal model must make the subject
// instance derivable.

// checkAnswerSound returns an error when the answer is violated on the
// given store. Answers whose check rule would be unsafe (a head variable
// not bound by φ ∧ ψ) are checked with the variable sampled over the
// store's constants.
func checkAnswerSound(st *storage.Store, rules []term.Rule, subject term.Atom, hypothesis term.Formula, a Answer) error {
	body := append(a.Body.Clone(), hypothesis...)
	vars := body.Vars()
	for _, v := range subject.Vars(nil) {
		if !containsVar(vars, v) {
			vars = append(vars, v)
		}
	}
	witness := term.NewAtom("__witness__", vars...)
	checkRules := append(append([]term.Rule(nil), rules...), term.Rule{Head: witness, Body: body})
	in := eval.Input{Store: st, Rules: checkRules}
	res, err := eval.NewSemiNaive(in).RetrieveContext(context.Background(), eval.Query{Subject: witness})
	if err != nil {
		// Unsafe check rule (free universal variable): sample it.
		return sampleAndCheck(st, rules, subject, body, vars)
	}
	// Collect the subject predicate's full extension once.
	subjVarsAtom := freshSubjectAtom(subject)
	ext, err := eval.NewSemiNaive(eval.Input{Store: st, Rules: rules}).RetrieveContext(context.Background(), eval.Query{Subject: subjVarsAtom})
	if err != nil {
		return fmt.Errorf("evaluating subject extension: %w", err)
	}
	extension := make(map[string]bool, len(ext.Tuples))
	for _, tp := range ext.Tuples {
		extension[storage.Tuple(tp).Key()] = true
	}
	for _, tp := range res.Tuples {
		s := term.NewSubst(len(vars))
		for i, v := range vars {
			s[v] = tp[i]
		}
		inst := s.Apply(subject)
		if !inst.IsGround() {
			// A subject variable absent from the body: universally
			// quantified; verify for every constant in the instance's
			// column domain (approximate with all stored constants).
			continue
		}
		if !extension[storage.Tuple(inst.Args).Key()] {
			return fmt.Errorf("unsound answer %v: binding %v satisfies body+hypothesis but %v is not derivable", a, s, inst)
		}
	}
	return nil
}

func freshSubjectAtom(subject term.Atom) term.Atom {
	args := make([]term.Term, len(subject.Args))
	for i := range args {
		args[i] = term.Var(fmt.Sprintf("_S%d", i))
	}
	return term.NewAtom(subject.Pred, args...)
}

func sampleAndCheck(st *storage.Store, rules []term.Rule, subject term.Atom, body term.Formula, vars []term.Term) error {
	// Collect constants appearing in the store.
	constSet := make(map[term.Term]bool)
	for _, pred := range st.Preds() {
		for _, f := range st.Facts(pred) {
			for _, t := range f.Args {
				constSet[t] = true
			}
		}
	}
	// This fallback only runs for small var counts in tests; bail out
	// rather than explode.
	if len(vars) > 3 {
		return nil
	}
	consts := make([]term.Term, 0, len(constSet))
	for c := range constSet {
		consts = append(consts, c)
	}
	var rec func(i int, s term.Subst) error
	rec = func(i int, s term.Subst) error {
		if i == len(vars) {
			groundBody := s.ApplyFormula(body)
			holds, err := groundFormulaHolds(st, rules, groundBody)
			if err != nil || !holds {
				return err
			}
			inst := s.Apply(subject)
			ok, err := groundFormulaHolds(st, rules, term.Formula{inst})
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("unsound answer: %v holds but %v is not derivable", groundBody, inst)
			}
			return nil
		}
		for _, c := range consts {
			s2 := s.Clone()
			s2[vars[i]] = c
			if err := rec(i+1, s2); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(0, term.NewSubst(len(vars)))
}

func groundFormulaHolds(st *storage.Store, rules []term.Rule, f term.Formula) (bool, error) {
	head := term.NewAtom("__probe__")
	checkRules := append(append([]term.Rule(nil), rules...), term.Rule{Head: head, Body: f})
	res, err := eval.NewSemiNaive(eval.Input{Store: st, Rules: checkRules}).RetrieveContext(context.Background(), eval.Query{Subject: head})
	if err != nil {
		return false, err
	}
	return len(res.Tuples) > 0, nil
}

// randomUniversityStore populates the paper's EDB schema with random data.
func randomUniversityStore(r *rand.Rand) *storage.Store {
	st := storage.NewMemory()
	students := []string{"ann", "bob", "cora", "dan", "eve"}
	courses := []string{"databases", "calculus", "ai"}
	profs := []string{"susan", "tom"}
	sems := []string{"f88", "f89"}
	insert := func(a term.Atom) {
		if _, err := st.InsertAtom(a); err != nil {
			panic(err)
		}
	}
	for _, s := range students {
		gpa := 2.0 + 2.0*r.Float64()
		insert(term.NewAtom("student", term.Sym(s), term.Sym("math"), term.Num(float64(int(gpa*10))/10)))
	}
	for i := 0; i < 8; i++ {
		insert(term.NewAtom("complete",
			term.Sym(students[r.Intn(len(students))]),
			term.Sym(courses[r.Intn(len(courses))]),
			term.Sym(sems[r.Intn(len(sems))]),
			term.Num(float64(2+r.Intn(3))),
		))
	}
	for i := 0; i < 4; i++ {
		insert(term.NewAtom("taught",
			term.Sym(profs[r.Intn(len(profs))]),
			term.Sym(courses[r.Intn(len(courses))]),
			term.Sym(sems[r.Intn(len(sems))]),
			term.Num(3)))
		insert(term.NewAtom("teach",
			term.Sym(profs[r.Intn(len(profs))]),
			term.Sym(courses[r.Intn(len(courses))])))
	}
	for i := 0; i < 4; i++ {
		insert(term.NewAtom("prereq",
			term.Sym(courses[r.Intn(len(courses))]),
			term.Sym(courses[r.Intn(len(courses))])))
	}
	return st
}

// TestQuickDescribeSoundOnUniversity model-checks every answer of the
// paper's example queries against randomized university databases.
func TestQuickDescribeSoundOnUniversity(t *testing.T) {
	d := newDescriber(t, universityIDB, Options{})
	queries := []string{
		`describe honor(X).`,
		`describe can_ta(X, databases) where student(X, math, V) and V > 3.7.`,
		`describe can_ta(X, Y) where honor(X) and teach(susan, Y).`,
		`describe can_ta(X, Y) where complete(X, Y, Z, 4).`,
		`describe prior(X, Y) where prior(databases, Y).`,
		`describe prior(X, Y) where prior(X, databases).`,
		`describe honor(X) where student(X, M, V) and V > 3.5.`,
	}
	rules := d.Rules()
	type parsed struct {
		subject term.Atom
		where   term.Formula
		answers []Answer
	}
	var cases []parsed
	for _, q := range queries {
		pq, err := parser.ParseQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		dq := pq.(*parser.Describe)
		// Use the step-free rendering but check against the ORIGINAL rule
		// set: the modified transformation's claim is precisely that the
		// rewritten atom is equivalent.
		ans, err := d.DescribeContext(context.Background(), dq.Subject, dq.Where, governor.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, parsed{dq.Subject, dq.Where, ans.Formulas})
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		st := randomUniversityStore(r)
		for _, c := range cases {
			for _, a := range c.answers {
				if err := checkAnswerSound(st, rules, c.subject, c.where, a); err != nil {
					t.Logf("seed %d: %v", seed, err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickDescribeSoundOnGraphs does the same for a recursive routing KB
// (the paper's fifth introduction example).
func TestQuickDescribeSoundOnGraphs(t *testing.T) {
	d := newDescriber(t, `
connected(X, Y) :- flight(X, Y).
connected(X, Y) :- flight(X, Z), connected(Z, Y).
`, Options{})
	queries := []string{
		`describe connected(X, Y) where connected(la, Y).`,
		`describe connected(X, Y) where flight(X, Y).`,
	}
	rules := d.Rules()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		st := storage.NewMemory()
		airports := []string{"la", "sf", "ny", "chi"}
		for i := 0; i < 7; i++ {
			if _, err := st.InsertAtom(term.NewAtom("flight",
				term.Sym(airports[r.Intn(len(airports))]),
				term.Sym(airports[r.Intn(len(airports))]))); err != nil {
				panic(err)
			}
		}
		for _, q := range queries {
			pq, err := parser.ParseQuery(q)
			if err != nil {
				return false
			}
			dq := pq.(*parser.Describe)
			ans, err := d.DescribeContext(context.Background(), dq.Subject, dq.Where, governor.Limits{})
			if err != nil {
				return false
			}
			for _, a := range ans.Formulas {
				if err := checkAnswerSound(st, rules, dq.Subject, dq.Where, a); err != nil {
					t.Logf("seed %d query %s: %v", seed, q, err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// randomBinaryStore fills each named binary relation with random pairs
// over four constants.
func randomBinaryStore(r *rand.Rand, preds ...string) *storage.Store {
	st := storage.NewMemory()
	consts := []string{"a", "b", "c", "d"}
	for _, pred := range preds {
		for i := 0; i < 6; i++ {
			if _, err := st.InsertAtom(term.NewAtom(pred,
				term.Sym(consts[r.Intn(len(consts))]), term.Sym(consts[r.Intn(len(consts))]))); err != nil {
				panic(err)
			}
		}
	}
	return st
}

// soundCase is one answer to model-check: `head ← body ∧ hypothesis`
// must hold in every database.
type soundCase struct {
	what       string
	head       term.Atom
	hypothesis term.Formula
	answer     Answer
}

func checkSoundOnStores(t *testing.T, rules []term.Rule, cases []soundCase, store func(*rand.Rand) *storage.Store) {
	t.Helper()
	if len(cases) == 0 {
		t.Fatal("nothing to check")
	}
	f := func(seed int64) bool {
		st := store(rand.New(rand.NewSource(seed)))
		for _, c := range cases {
			if err := checkAnswerSound(st, rules, c.head, c.hypothesis, c.answer); err != nil {
				t.Logf("seed %d, %s: %v", seed, c.what, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func describeCases(t *testing.T, d *Describer, queries ...string) []soundCase {
	t.Helper()
	var cases []soundCase
	for _, q := range queries {
		pq, err := parser.ParseQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		dq := pq.(*parser.Describe)
		for _, a := range describe(t, d, q).Formulas {
			cases = append(cases, soundCase{q, dq.Subject, dq.Where, a})
		}
	}
	return cases
}

// TestQuickDescribeSoundBeyondAlgorithm1 model-checks what Algorithm 2
// and the §6 extensions return: Example 8's strongly linear recursion,
// the bounded mode for untyped recursion at three bounds, answers kept in
// step-predicate form, `where necessary`, and every entry of a wildcard
// describe.
func TestQuickDescribeSoundBeyondAlgorithm1(t *testing.T) {
	t.Run("example 8", func(t *testing.T) {
		d := newDescriber(t, "p(X, Y) :- q(X, Z), r(Z, Y).\nq(X, Y) :- q(X, Z), s(Z, Y).\nq(X, Y) :- r(X, Y).\n", Options{})
		cases := describeCases(t, d,
			`describe p(X, Y) where r(a, Y).`, `describe p(X, Y) where q(X, a).`,
			`describe q(X, Y) where s(a, Y).`, `describe q(X, Y) where r(X, Y).`)
		checkSoundOnStores(t, d.Rules(), cases, func(r *rand.Rand) *storage.Store { return randomBinaryStore(r, "r", "s") })
	})
	for _, bound := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("untyped bound %d", bound), func(t *testing.T) {
			d := newDescriber(t, "reach(X, Y) :- link(X, Y).\nreach(X, Y) :- reach(Y, X).\nnear(X, Y) :- reach(X, Y), close(X, Y).\n",
				Options{UntypedBound: bound})
			cases := describeCases(t, d,
				`describe reach(X, Y) where link(Y, X).`, `describe reach(X, Y) where reach(Y, X).`,
				`describe near(X, Y) where link(Y, X).`, `describe near(X, Y) where reach(Y, X) and close(X, Y).`)
			checkSoundOnStores(t, d.Rules(), cases, func(r *rand.Rand) *storage.Store { return randomBinaryStore(r, "link", "close") })
		})
	}
	t.Run("KeepSteps", func(t *testing.T) {
		// Step atoms mean what the transformed rules say they mean, and the
		// transformation preserves prior's extension: check against those.
		d := newDescriber(t, universityIDB, Options{KeepSteps: true})
		cases := describeCases(t, d,
			`describe prior(X, Y) where prior(databases, Y).`, `describe prior(X, Y) where prior(X, databases).`,
			`describe prior(X, Y) where prereq(X, Z).`)
		steps := 0
		for _, c := range cases {
			for _, a := range c.answer.Body {
				if _, ok := d.trans.IsStepPred(a.Pred); ok {
					steps++
				}
			}
		}
		if steps == 0 {
			t.Fatal("no answer kept a step atom")
		}
		tr, err := transform.Of(d.graph)
		if err != nil {
			t.Fatal(err)
		}
		checkSoundOnStores(t, tr.Rules, cases, randomUniversityStore)
	})
	t.Run("where necessary", func(t *testing.T) {
		d := newDescriber(t, universityIDB, Options{})
		var cases []soundCase
		for _, q := range []string{
			`describe can_ta(X, Y) where honor(X) and teach(susan, Y).`,
			`describe can_ta(X, databases) where student(X, math, V) and V > 3.7.`,
			`describe honor(X) where student(X, M, V) and V > 3.8.`,
		} {
			pq, err := parser.ParseQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			dq := pq.(*parser.Describe)
			all := describe(t, d, q).SortedStrings()
			nec, err := d.DescribeNecessaryContext(context.Background(), dq.Subject, dq.Where, governor.Limits{})
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range nec.Formulas {
				if !slices.Contains(all, a.String()) {
					t.Errorf("%s: necessary answer %v is not among %q", q, a, all)
				}
				cases = append(cases, soundCase{q + " (necessary)", dq.Subject, dq.Where, a})
			}
		}
		checkSoundOnStores(t, d.Rules(), cases, randomUniversityStore)
	})
	t.Run("wildcard", func(t *testing.T) {
		d := newDescriber(t, universityIDB, Options{})
		hyp := formula(t, `honor(X)`)
		entries, err := d.DescribeWildcard(hyp)
		if err != nil {
			t.Fatal(err)
		}
		var cases []soundCase
		for _, e := range entries {
			for _, a := range e.Answers.Formulas {
				// The entry's head is the subject with the hypothesis's
				// variables folded in.
				cases = append(cases, soundCase{"describe * where honor(X): " + a.String(), a.Head, hyp, a})
			}
		}
		checkSoundOnStores(t, d.Rules(), cases, randomUniversityStore)
	})
}
