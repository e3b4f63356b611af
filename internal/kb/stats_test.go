package kb

import (
	"context"
	"testing"

	"kdb/internal/eval"
	"kdb/internal/term"
)

// TestRetrieveReturnsItsStats: a retrieve returns its own evaluation
// record, the recursive component's iteration trail included, and every
// statement gets a fresh one.
func TestRetrieveReturnsItsStats(t *testing.T) {
	k := loadKB(t, universityKB)
	_, st, err := k.retrieve(context.Background(), term.NewAtom("prior", term.Var("X"), term.Var("Y")), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st == nil {
		t.Fatal("no stats after retrieve")
	}
	if st.Engine != "seminaive" {
		t.Errorf("engine=%q", st.Engine)
	}
	if st.Facts == 0 || st.Probes == 0 {
		t.Errorf("counters empty: %+v", st)
	}
	// The prior SCC is recursive: its iteration trail must be recorded.
	found := false
	for _, c := range st.Components {
		if c.Skipped {
			continue
		}
		for _, p := range c.Preds {
			if p == "prior" {
				found = true
				if !c.Recursive || c.Iterations < 2 {
					t.Errorf("prior component: %+v", c)
				}
			}
		}
	}
	if !found {
		t.Errorf("prior component missing from stats: %+v", st.Components)
	}
	_, again, err := k.retrieve(context.Background(), term.NewAtom("honor", term.Var("X")), nil)
	if err != nil {
		t.Fatal(err)
	}
	if again == nil || again == st {
		t.Error("another retrieve must return a record of its own")
	}
}

// TestStatementStatsFoldEveryRun: a statement that evaluates several
// queries records one EvalStats covering all of them. A disjunctive
// retrieve reports the sum of its disjuncts run alone, a constraint check
// the sum of its constraints checked alone, each from a fresh KB.
func TestStatementStatsFoldEveryRun(t *testing.T) {
	const program = `
a(1). a(2). a(3). b(4). b(5).
p(X) :- a(X).
q(X) :- b(X).
r(X) :- p(X).
r(X) :- q(X).
`
	const c1, c2 = ":- p(X), X > 1.\n", ":- r(X), q(X).\n"
	retrieve := func(stmt string) *eval.EvalStats {
		k := loadKB(t, program)
		res, err := k.ExecStringContext(context.Background(), stmt)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats
	}
	// check evaluates the constraints as CheckConstraintsContext does and
	// returns the record evaluate folds.
	check := func(constraints string) *eval.EvalStats {
		k := loadKB(t, program+constraints)
		var queries []eval.Query
		for _, ic := range k.Constraints() {
			queries = append(queries, eval.Query{Subject: term.NewAtom("__ic__", ic.Vars()...), Where: ic})
		}
		st, err := k.evaluate(context.Background(), queries, func(_ int, _ *eval.Result, err error) error { return err })
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	for _, c := range []struct {
		name        string
		whole, a, b *eval.EvalStats
	}{
		{"disjunctive retrieve",
			retrieve("retrieve r(X) where p(X) or q(X)."),
			retrieve("retrieve r(X) where p(X)."),
			retrieve("retrieve r(X) where q(X).")},
		{"constraint check", check(c1 + c2), check(c1), check(c2)},
	} {
		type counts struct {
			facts, comps                             int
			lookups, probes, candidates, indexBuilds int64
		}
		of := func(st *eval.EvalStats) counts {
			return counts{st.Facts, len(st.Components), st.Lookups, st.Probes, st.Candidates, st.IndexBuilds}
		}
		a, b := of(c.a), of(c.b)
		want := counts{a.facts + b.facts, a.comps + b.comps, a.lookups + b.lookups,
			a.probes + b.probes, a.candidates + b.candidates, a.indexBuilds + b.indexBuilds}
		if got := of(c.whole); got != want {
			t.Errorf("%s: record %+v, want the sum of its runs %+v", c.name, got, want)
		}
	}
}
