package eval

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

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
	res, err := e.Retrieve(q)
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
	in.Prepared = Prepare(in.Rules)
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
// does, plus a constant: no semi-naive delta is filled, since no later
// round would read it.
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
		runtime.KeepAlive(Prepare(rules))
	}
	runtime.ReadMemStats(&after)
	kb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
	t.Logf("Prepare allocates %.1f KB for path over edge", kb)
	if kb > 20 {
		t.Errorf("Prepare allocates %.1f KB for path over edge, want at most 20", kb)
	}
}
