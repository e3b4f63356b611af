package eval

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"kdb/internal/depgraph"
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
		if c.Recursive {
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

// TestRecordListsEvaluatedComponents: a statement's record lists the
// components it evaluated, in schedule order, and nothing for the rules
// it does not reach — here the specialised callee, the component that
// calls it, and the query rules' own — so a retrieve beside 200
// unrelated rules allocates no more bytes than beside 5 (MemStats
// TotalAlloc, which counts the whole process: 64 bytes more pass, and
// 10 % more under the race detector, whose runs differed by up to 3 %).
func TestRecordListsEvaluatedComponents(t *testing.T) {
	q := query(t, `retrieve top(X) where b(X).`)
	bytes := func(unrelated int) uint64 {
		var src strings.Builder
		src.WriteString("a(1). a(2). b(1). v(a).\nmid(X) :- a(X).\ntop(X) :- b(X), mid(X).\n")
		for i := range unrelated {
			fmt.Fprintf(&src, "u%d(X) :- v(X).\n", i)
		}
		in := load(t, src.String())
		in.Prepared = Prepare(depgraph.New(in.Rules))
		e := NewSemiNaive(in)
		run := func() {
			if _, err := e.RetrieveContext(context.Background(), q); err != nil {
				t.Fatal(err)
			}
		}
		run()
		var preds [][]string
		for _, c := range e.(StatsReporter).LastStats().Components {
			preds = append(preds, c.Preds)
		}
		if want := [][]string{{"mid"}, {"top"}, {queryPredName}}; !reflect.DeepEqual(preds, want) {
			t.Errorf("%d unrelated rules: components %v, want %v", unrelated, preds, want)
		}
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			run()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	few, many := bytes(5), bytes(200)
	t.Logf("%d bytes per statement beside 5 unrelated rules, %d beside 200", few, many)
	slack := uint64(64)
	if raceEnabled {
		slack = few / 10
	}
	if many > few+slack {
		t.Errorf("a retrieve allocates %d bytes beside 5 unrelated rules, %d beside 200", few, many)
	}
}
