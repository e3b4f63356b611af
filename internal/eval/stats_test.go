package eval

import (
	"context"
	"strings"
	"testing"
)

// TestEvalStatsChain: the semi-naive record reports the recursive
// component's iteration count, delta trajectory, and storage counters.
func TestEvalStatsChain(t *testing.T) {
	in := load(t, `
e(n1, n2). e(n2, n3). e(n3, n4). e(n4, n5).
path(X, Y) :- e(X, Y).
path(X, Y) :- e(X, Z), path(Z, Y).
`)
	e := NewSemiNaive(in)
	res, err := e.RetrieveContext(context.Background(), query(t, `retrieve path(X, Y).`))
	if err != nil {
		t.Fatal(err)
	}
	st := e.(StatsReporter).LastStats()
	if st == nil {
		t.Fatal("no stats recorded")
	}
	if st.Engine != "seminaive" {
		t.Errorf("engine=%q", st.Engine)
	}
	var rec *ComponentStats
	for i := range st.Components {
		c := &st.Components[i]
		if c.Recursive && !c.Skipped {
			rec = c
		}
	}
	if rec == nil {
		t.Fatal("no recursive component in stats")
	}
	// A 4-edge chain closes in 3 productive rounds plus one empty one.
	if rec.Iterations < 3 {
		t.Errorf("Iterations = %d, want >= 3", rec.Iterations)
	}
	sum := 0
	for _, d := range rec.DeltaSizes {
		sum += d
	}
	if sum != rec.Facts || rec.Facts != 10 { // closure of a 5-node chain
		t.Errorf("Facts = %d, delta sum = %d, want both 10", rec.Facts, sum)
	}
	if st.Facts != rec.Facts+len(res.Tuples) { // + the __query__ facts
		t.Errorf("total Facts = %d, want %d", st.Facts, rec.Facts+len(res.Tuples))
	}
	if st.Lookups == 0 || st.Probes == 0 || st.Candidates == 0 {
		t.Errorf("counters not collected: %+v", st)
	}
	if !strings.Contains(st.String(), "scc [path]") {
		t.Errorf("String() missing component line:\n%s", st)
	}
}

// TestTopDownStats: the goal-directed engine reports passes, tables, and
// lookups.
func TestTopDownStats(t *testing.T) {
	in := load(t, universityDB)
	e := NewTopDown(in)
	if _, err := e.RetrieveContext(context.Background(), query(t, `retrieve can_ta(X, databases).`)); err != nil {
		t.Fatal(err)
	}
	st := e.(StatsReporter).LastStats()
	if st == nil || st.Passes == 0 || st.Tables == 0 || st.Lookups == 0 {
		t.Fatalf("incomplete top-down stats: %+v", st)
	}
	if !strings.Contains(st.String(), "passes=") {
		t.Errorf("String() missing passes: %s", st)
	}
}
