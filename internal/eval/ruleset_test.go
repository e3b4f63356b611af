package eval

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"kdb/internal/depgraph"
	"kdb/internal/governor"
	"kdb/internal/term"
)

// outcome is what one statement returned: its sorted answers, or the
// text of its error.
type outcome struct {
	answers []string
	err     string
}

func runStatement(e Engine, q Query) outcome {
	res, err := e.RetrieveContext(context.Background(), q)
	if err != nil {
		return outcome{err: err.Error()}
	}
	return outcome{answers: res.Strings()}
}

// TestRuleSetSharedByConcurrentStatements: eight goroutines run every
// engine over one prepared rule set at once, and each statement answers
// as it does alone, with the rules prepared for it. Run with -race: a
// write to the set, its graph or a compiled body shows here.
func TestRuleSetSharedByConcurrentStatements(t *testing.T) {
	in := load(t, universityDB)
	in.Prepared = Prepare(depgraph.New(in.Rules))
	var queries []Query
	var want []outcome
	for _, s := range []string{
		`retrieve can_ta(X, Y).`,
		`retrieve prior(databases, Y).`,
		`retrieve honor(X) where enroll(X, databases).`,
		`retrieve ta(X) where can_ta(X, Y) and prior(Y, Z).`,
		`retrieve honor(X) where Y > 3.`,
	} {
		q := query(t, s)
		queries = append(queries, q)
		want = append(want, runStatement(NewSemiNaive(Input{Store: in.Store, Rules: in.Rules}), q))
	}
	if want[0].err != "" || len(want[0].answers) == 0 || want[4].err == "" {
		t.Fatalf("solo outcomes %+v: want answers first and an unsafe qualifier last", want)
	}

	const goroutines, rounds = 8, 5
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for _, e := range engines(in) {
					for i, q := range queries {
						if got := runStatement(e, q); !reflect.DeepEqual(got, want[i]) {
							errc <- fmt.Errorf("%s, %v: %+v, alone %+v", e.Name(), q.Subject, got, want[i])
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestNonRecursiveComponentKeepsNoDelta: evaluating a non-recursive
// component allocates what inserting its facts into the derived relation
// does, plus a constant. No component creates a relation per round or
// stores a fact twice: a recursive one reads its delta as a window over
// the derived relation (TestSemiNaiveDeltaBuildsNoIndexPerRound), and
// this one, which no later round reads, keeps not even the window.
func TestNonRecursiveComponentKeepsNoDelta(t *testing.T) {
	excess := func(n int) float64 {
		var src strings.Builder
		var heads []term.Atom
		for i := 0; i < n; i++ {
			fmt.Fprintf(&src, "e(c%d).\n", i)
			heads = append(heads, term.NewAtom("q", term.Sym(fmt.Sprintf("c%d", i))))
		}
		src.WriteString("q(X) :- e(X).\n")
		in := load(t, src.String())
		p, err := buildPlan(in, query(t, `retrieve q(X).`))
		if err != nil {
			t.Fatal(err)
		}
		e := NewSemiNaive(in).(*bottomUp)
		var cs ComponentStats
		component := testing.AllocsPerRun(20, func() {
			gov, cancel := governor.New(context.Background(), governor.Limits{})
			defer cancel()
			cs = ComponentStats{}
			if err := e.evalComponent(p, newDerived(nil), gov, []string{"q"}, &cs, nil); err != nil {
				panic(err)
			}
		})
		if cs.Recursive || cs.Facts != n {
			t.Fatalf("component %+v: want %d facts, not recursive", cs, n)
		}
		inserts := testing.AllocsPerRun(20, func() {
			d := newDerived(nil)
			for _, h := range heads {
				if _, err := d.insert(h); err != nil {
					panic(err)
				}
			}
		})
		return component - inserts
	}
	if few, many := excess(10), excess(40); few != many {
		t.Errorf("beyond the derived relation's own, a non-recursive component allocates %.0f times for 10 facts, %.0f for 40: it keeps a delta", few, many)
	}
}

// chainClosure loads an n-node chain, edge(c0, c1) … edge(cn-2, cn-1),
// with the closure rules of the benchmark's closure workload. The
// fixpoint takes a round per node, each deriving one fact fewer.
func chainClosure(t testing.TB, n int) Input {
	t.Helper()
	var src strings.Builder
	for i := 0; i+1 < n; i++ {
		fmt.Fprintf(&src, "edge(c%d, c%d).\n", i, i+1)
	}
	src.WriteString("path(X, Y) :- edge(X, Y).\npath(X, Y) :- edge(X, Z), path(Z, Y).\n")
	return load(t, src.String())
}

// retrieveClosure evaluates path(X, Y) with e and checks the answer
// count of an n-node chain.
func retrieveClosure(t testing.TB, e *bottomUp, n int) *EvalStats {
	t.Helper()
	res, err := e.RetrieveContext(context.Background(), query(t, `retrieve path(X, Y).`))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != n*(n-1)/2 {
		t.Fatalf("%d-node chain: %d answers, want %d", n, len(res.Tuples), n*(n-1)/2)
	}
	return e.LastStats()
}

// TestSemiNaiveDeltaBuildsNoIndexPerRound: the delta is a window over the
// derived relation, probed through the relation's own index, so a
// recursive closure builds as many indexes on a 32-node chain as on a
// 128-node chain, four times as many rounds.
func TestSemiNaiveDeltaBuildsNoIndexPerRound(t *testing.T) {
	builds := func(n int) (builds int64, rounds int) {
		st := retrieveClosure(t, NewSemiNaive(chainClosure(t, n)).(*bottomUp), n)
		for _, cs := range st.Components {
			rounds = max(rounds, cs.Iterations)
		}
		return st.IndexBuilds, rounds
	}
	few, fewRounds := builds(32)
	many, manyRounds := builds(128)
	if manyRounds < 3*fewRounds {
		t.Fatalf("rounds: %d on 32 nodes, %d on 128; the chain did not lengthen the fixpoint", fewRounds, manyRounds)
	}
	if few != many {
		t.Errorf("index builds: %d on a 32-node chain, %d on a 128-node chain; want equal", few, many)
	}
}

// TestSemiNaiveAllocsPerDerivedFact: a semi-naive closure costs at most
// 1.5 allocations per derived fact, on a 32-node chain and on a 128-node
// one: each fact is cloned once into its derived relation and stored
// nowhere else.
func TestSemiNaiveAllocsPerDerivedFact(t *testing.T) {
	for _, n := range []int{32, 128} {
		e := NewSemiNaive(chainClosure(t, n)).(*bottomUp)
		retrieveClosure(t, e, n) // builds the stored relation's index
		var st *EvalStats
		allocs := testing.AllocsPerRun(3, func() { st = retrieveClosure(t, e, n) })
		per := allocs / float64(st.Facts)
		t.Logf("%d-node chain: %.0f allocations for %d derived facts, %.2f per fact", n, allocs, st.Facts, per)
		if per > 1.5 {
			t.Errorf("%d-node chain: %.2f allocations per derived fact, want at most 1.5", n, per)
		}
	}
}

// TestPrepareAllocatesLittle: what a KB keeps prepared between loads is
// small. For the reach_bound workload's program, path over edge, Prepare
// allocates at most 20 KB, temporaries included.
func TestPrepareAllocatesLittle(t *testing.T) {
	rules := load(t, `
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
`).Rules
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		runtime.KeepAlive(Prepare(depgraph.New(rules)))
	}
	runtime.ReadMemStats(&after)
	kb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
	t.Logf("Prepare allocates %.1f KB for path over edge", kb)
	if kb > 20 {
		t.Errorf("Prepare allocates %.1f KB for path over edge, want at most 20", kb)
	}
}
