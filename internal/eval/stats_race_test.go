package eval

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// chainProgram builds a recursive reachability program over an n-edge
// chain.
func chainProgram(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "edge(n%d, n%d).\n", i, i+1)
	}
	sb.WriteString("reach(X, Y) :- edge(X, Y).\n")
	sb.WriteString("reach(X, Y) :- edge(X, Z), reach(Z, Y).\n")
	return sb.String()
}

// statsFingerprint is the scheduling-independent portion of an
// evaluation record: identical queries over identical data must produce
// identical fingerprints, no matter what ran concurrently.
func statsFingerprint(st *EvalStats) EvalStats {
	out := *st
	out.Plan, out.Wall = 0, 0
	out.Components = append([]ComponentStats(nil), st.Components...)
	for i := range out.Components {
		out.Components[i].Wall = 0
	}
	return out
}

// TestConcurrentQueryStatsIsolation hammers one shared store with
// concurrent evaluations and asserts every query
// observes exactly the counters of a solo run. Before per-query counter
// threading, concurrent queries attached their counter sinks to the
// shared stored relations (last writer won), so probe and candidate
// counts leaked between queries. Run with -race.
func TestConcurrentQueryStatsIsolation(t *testing.T) {
	in := load(t, chainProgram(40))
	q := query(t, "retrieve reach(n0, X).")

	baselines := map[string]EvalStats{}
	builders := map[string]func() Engine{
		"seminaive": func() Engine { return NewSemiNaive(in) },
		"topdown":   func() Engine { return NewTopDown(in) },
	}
	wantTuples := map[string]int{}
	for name, mk := range builders {
		// First run warms the store's lazy hash indexes (built once,
		// shared by every later query), so IndexBuilds is stable in the
		// baseline taken from the second run.
		if _, err := mk().RetrieveContext(context.Background(), q); err != nil {
			t.Fatalf("%s warm-up: %v", name, err)
		}
		e := mk()
		res, err := e.RetrieveContext(context.Background(), q)
		if err != nil {
			t.Fatalf("%s baseline: %v", name, err)
		}
		wantTuples[name] = len(res.Tuples)
		if wantTuples[name] != 40 {
			t.Fatalf("%s baseline tuples = %d, want 40", name, wantTuples[name])
		}
		baselines[name] = statsFingerprint(e.(StatsReporter).LastStats())
	}

	const goroutines, rounds = 8, 10
	var wg sync.WaitGroup
	errc := make(chan error, goroutines*rounds)
	for g := 0; g < goroutines; g++ {
		for name, mk := range builders {
			wg.Add(1)
			go func(name string, mk func() Engine) {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					e := mk()
					res, err := e.RetrieveContext(context.Background(), q)
					if err != nil {
						errc <- fmt.Errorf("%s: %v", name, err)
						return
					}
					if len(res.Tuples) != wantTuples[name] {
						errc <- fmt.Errorf("%s: %d tuples, want %d", name, len(res.Tuples), wantTuples[name])
						return
					}
					got := statsFingerprint(e.(StatsReporter).LastStats())
					if !reflect.DeepEqual(got, baselines[name]) {
						errc <- fmt.Errorf("%s: stats diverged under concurrency:\ngot  %+v\nwant %+v", name, got, baselines[name])
						return
					}
				}
			}(name, mk)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestComponentStatsDeterministicOrder asserts the per-SCC records come
// back in condensation order and identical run to run, so -stats and
// -stats-json output is stable.
func TestComponentStatsDeterministicOrder(t *testing.T) {
	src := chainProgram(10) + `
a(X) :- edge(X, Y).
b(X) :- a(X).
c(X) :- b(X), reach(X, Y).
probe(X) :- c(X).
`
	q := query(t, "retrieve probe(X).")

	var first *EvalStats
	for run := 0; run < 3; run++ {
		// A stored relation keeps the indexes a statement builds on it,
		// so each run loads its own store.
		e := NewSemiNaive(load(t, src))
		if _, err := e.RetrieveContext(context.Background(), q); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		st := e.(StatsReporter).LastStats()
		if first == nil {
			first = st
			continue
		}
		if a, b := statsFingerprint(first), statsFingerprint(st); !reflect.DeepEqual(a, b) {
			t.Errorf("run %d: stats differ from the first run:\nfirst %+v\ngot   %+v", run, a, b)
		}
	}
	pos := make(map[string]int)
	for i, c := range first.Components {
		for _, p := range c.Preds {
			pos[p] = i
		}
	}
	for _, dep := range [][2]string{{"a", "b"}, {"b", "c"}, {"reach", "c"}, {"c", "probe"}} {
		if pos[dep[0]] >= pos[dep[1]] {
			t.Errorf("component of %s comes after that of %s, which depends on it: %+v", dep[0], dep[1], first.Components)
		}
	}
}
