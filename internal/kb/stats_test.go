package kb

import (
	"context"
	"slices"
	"testing"

	"kdb/internal/eval"
	"kdb/internal/term"
)

// TestRetrieveReturnsItsStats: a retrieve returns its own evaluation
// record, the recursive component's iteration trail included, and every
// statement gets a fresh one.
func TestRetrieveReturnsItsStats(t *testing.T) {
	k := loadKB(t, universityKB)
	_, st, err := k.evaluate(context.Background(), eval.Query{Subject: term.NewAtom("prior", term.Var("X"), term.Var("Y"))}, nil)
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
	_, again, err := k.evaluate(context.Background(), eval.Query{Subject: term.NewAtom("honor", term.Var("X"))}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again == nil || again == st {
		t.Error("another retrieve must return a record of its own")
	}
}

// TestOrRetrieveIsOneEvaluation: a retrieve of several disjuncts is one
// evaluation. Its record lists the schedule once, as many components as
// the statement with one of its disjuncts, and a predicate both disjuncts
// call is derived once: its component runs for the values b and c bind in
// either disjunct (1, 2, 4, 5 and 6) and derives those a holds, and the
// record's facts are those and the answers.
func TestOrRetrieveIsOneEvaluation(t *testing.T) {
	k := loadKB(t, `
a(1). a(2). a(3). a(4). a(5).
b(1). b(2). c(4). c(5). c(6).
p(X) :- a(X).
`)
	run := func(stmt string) *ExecResult {
		res, err := k.ExecStringContext(context.Background(), stmt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one := run(`retrieve ans(X) where p(X) and b(X).`)
	or := run(`retrieve ans(X) where p(X) and b(X) or p(X) and c(X).`)
	if got := or.RetrieveLines(); !slices.Equal(got, []string{"ans(1)", "ans(2)", "ans(4)", "ans(5)"}) {
		t.Fatalf("answers = %q", got)
	}
	if len(or.Stats.Components) != len(one.Stats.Components) {
		t.Errorf("%d components, the statement with one disjunct has %d: the schedule is listed more than once",
			len(or.Stats.Components), len(one.Stats.Components))
	}
	i := slices.IndexFunc(or.Stats.Components, func(c eval.ComponentStats) bool { return slices.Equal(c.Preds, []string{"p"}) })
	if i < 0 || or.Stats.Components[i].Calls != 5 || or.Stats.Components[i].Facts != 4 {
		t.Errorf("components %+v: want p's to run 5 calls deriving 4 facts", or.Stats.Components)
	}
	if or.Stats.Facts != 4+4 {
		t.Errorf("facts = %d, want p's 4 and the 4 answers", or.Stats.Facts)
	}
}
