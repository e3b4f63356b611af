package eval

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"kdb/internal/governor"
	"kdb/internal/prov"
	"kdb/internal/term"
)

// expensiveInput builds a divergently expensive (but finite) program: the
// transitive closure of an n-node cycle has n² reachable pairs and needs
// ~n fixpoint rounds, far more work than any test deadline allows.
func expensiveInput(t testing.TB, n int) Input {
	t.Helper()
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "edge(n%d, n%d).\n", i, (i+1)%n)
	}
	sb.WriteString("reach(X, Y) :- edge(X, Y).\n")
	sb.WriteString("reach(X, Y) :- edge(X, Z), reach(Z, Y).\n")
	return load(t, sb.String())
}

// governedEngine is an engine under the name of the subtests that run it.
type governedEngine struct {
	label string
	Engine
}

// governedEngines returns every engine built with the given options, and
// the semi-naive engine once more with a provenance recorder and a
// profile attached — how explain and profile statements run it — so
// governed stops are also checked on the instrumented derive path. The
// labels number the entries; they are not renumbered when an entry
// leaves the list (0 and 1 were the naive engine's, 6 magic's
// instrumented run), so a subtest keeps its name.
func governedEngines(in Input, opts ...EngineOption) []governedEngine {
	instrumented := func() []EngineOption {
		return append(append([]EngineOption{}, opts...),
			WithProvenance(prov.NewRecorder()), WithProfile())
	}
	return []governedEngine{
		{"2-seminaive", NewSemiNaive(in, opts...)},
		{"3-seminaive", NewSemiNaive(in, instrumented()...)},
		{"4-topdown", NewTopDown(in, opts...)},
		{"5-magic", NewMagic(in, opts...)},
	}
}

func TestDeadlineStopsEveryEngine(t *testing.T) {
	in := expensiveInput(t, 600)
	q := query(t, `retrieve reach(X, Y).`)
	for _, g := range governedEngines(in) {
		e := g.Engine
		t.Run(g.label, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			start := time.Now()
			_, err := e.RetrieveContext(ctx, q)
			elapsed := time.Since(start)
			if err == nil {
				t.Fatal("expected a deadline error, query completed")
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("err = %v, want to wrap context.DeadlineExceeded", err)
			}
			if !errors.Is(err, governor.ErrCanceled) {
				t.Errorf("err = %v, want to match governor.ErrCanceled", err)
			}
			if elapsed > 500*time.Millisecond {
				t.Errorf("took %v to observe a 100ms deadline", elapsed)
			}
			var se *StopError
			if !errors.As(err, &se) {
				t.Fatalf("err = %v, want *StopError with stats", err)
			}
			if se.Stats == nil || se.Stats.StopReason != "deadline" {
				t.Errorf("stats = %+v, want StopReason deadline", se.Stats)
			}
		})
	}
}

func TestMaxWallLimitViaOptions(t *testing.T) {
	in := expensiveInput(t, 600)
	q := query(t, `retrieve reach(X, Y).`)
	for _, g := range governedEngines(in, WithLimits(governor.Limits{MaxWall: 50 * time.Millisecond})) {
		e := g.Engine
		t.Run(g.label, func(t *testing.T) {
			start := time.Now()
			_, err := e.RetrieveContext(context.Background(), q) // no deadline: the limit alone must stop it
			if err == nil {
				t.Fatal("expected a deadline error, query completed")
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("err = %v, want to wrap context.DeadlineExceeded", err)
			}
			if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
				t.Errorf("took %v to observe a 50ms wall limit", elapsed)
			}
		})
	}
}

func TestPreCanceledContext(t *testing.T) {
	in := expensiveInput(t, 600)
	q := query(t, `retrieve reach(X, Y).`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, g := range governedEngines(in) {
		e := g.Engine
		t.Run(g.label, func(t *testing.T) {
			start := time.Now()
			_, err := e.RetrieveContext(ctx, q)
			if !errors.Is(err, governor.ErrCanceled) {
				t.Errorf("err = %v, want governor.ErrCanceled", err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Errorf("err = %v, want to wrap context.Canceled", err)
			}
			if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
				t.Errorf("took %v to observe a pre-canceled context", elapsed)
			}
		})
	}
}

func TestMaxFactsLimit(t *testing.T) {
	in := expensiveInput(t, 200)
	q := query(t, `retrieve reach(X, Y).`)
	for _, g := range governedEngines(in, WithLimits(governor.Limits{MaxFacts: 100})) {
		e := g.Engine
		t.Run(g.label, func(t *testing.T) {
			_, err := e.RetrieveContext(context.Background(), q)
			var le *governor.LimitError
			if !errors.As(err, &le) {
				t.Fatalf("err = %v, want *LimitError", err)
			}
			if le.Kind != governor.LimitFacts {
				t.Errorf("kind = %q, want %q", le.Kind, governor.LimitFacts)
			}
			var se *StopError
			if !errors.As(err, &se) || se.Stats == nil {
				t.Fatalf("err = %v, want *StopError with stats", err)
			}
			if se.Stats.StopReason != "limit:facts" {
				t.Errorf("StopReason = %q", se.Stats.StopReason)
			}
		})
	}
}

func TestMaxIterationsLimit(t *testing.T) {
	in := expensiveInput(t, 200)
	q := query(t, `retrieve reach(X, Y).`)
	for _, g := range governedEngines(in, WithLimits(governor.Limits{MaxIterations: 2})) {
		e := g.Engine
		t.Run(g.label, func(t *testing.T) {
			_, err := e.RetrieveContext(context.Background(), q)
			var le *governor.LimitError
			if !errors.As(err, &le) {
				t.Fatalf("err = %v, want *LimitError", err)
			}
			if le.Kind != governor.LimitIterations {
				t.Errorf("kind = %q, want %q", le.Kind, governor.LimitIterations)
			}
		})
	}
}

func TestLimitsDoNotAffectCompletingQueries(t *testing.T) {
	in := load(t, universityDB)
	q := query(t, `retrieve prior(databases, X).`)
	limits := governor.Limits{
		MaxWall:       10 * time.Second,
		MaxFacts:      100000,
		MaxIterations: 100000,
	}
	for _, g := range governedEngines(in, WithLimits(limits)) {
		e := g.Engine
		t.Run(g.label, func(t *testing.T) {
			res, err := e.RetrieveContext(context.Background(), q)
			if err != nil {
				t.Fatalf("generous limits must not interfere: %v", err)
			}
			if len(res.Tuples) != 2 {
				t.Errorf("answers = %d, want 2", len(res.Tuples))
			}
		})
	}
}

// TestPanicContainment: a panic inside an evaluation surfaces as a
// *StopError wrapping the *PanicError, and the engine's record of that
// statement says so — not the record of the clean run before it.
func TestPanicContainment(t *testing.T) {
	in := expensiveInput(t, 10)
	q := query(t, `retrieve reach(X, Y).`)
	for _, g := range governedEngines(in) {
		e := g.Engine
		t.Run(g.label, func(t *testing.T) {
			if _, err := e.RetrieveContext(context.Background(), q); err != nil {
				t.Fatalf("clean run: %v", err)
			}
			DeriveHook = func(term.Atom) { panic("injected failure") }
			defer func() { DeriveHook = nil }()
			_, err := e.RetrieveContext(context.Background(), q)
			var pe *governor.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want *PanicError", err)
			}
			if !strings.Contains(pe.Error(), "injected failure") {
				t.Errorf("panic value lost: %v", pe)
			}
			var se *StopError
			if !errors.As(err, &se) {
				t.Fatalf("err = %T %v, want *StopError", err, err)
			}
			if st := e.(StatsReporter).LastStats(); st == nil || st.StopReason != "panic" || st != se.Stats {
				t.Errorf("LastStats = %+v, want the stop's record with StopReason panic", st)
			}
		})
	}
}

// TestPanicContainmentIndependentComponents: a panic in the last of
// several independent components, after the others have finished, still
// ends as the statement's own recorded stop.
func TestPanicContainmentIndependentComponents(t *testing.T) {
	in := load(t, `
e1(a, b). e2(a, b). e3(a, b). e4(a, b).
p1(X, Y) :- e1(X, Y).
p2(X, Y) :- e2(X, Y).
p3(X, Y) :- e3(X, Y).
p4(X, Y) :- e4(X, Y).
all(X, Y) :- p1(X, Y), p2(X, Y), p3(X, Y), p4(X, Y).
`)
	q := query(t, `retrieve all(X, Y).`)
	DeriveHook = func(a term.Atom) {
		if a.Pred == "all" {
			panic("component panic")
		}
	}
	defer func() { DeriveHook = nil }()
	e := NewSemiNaive(in)
	_, err := e.RetrieveContext(context.Background(), q)
	var pe *governor.PanicError
	if !errors.As(err, &pe) || !strings.Contains(pe.Error(), "component panic") {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	var se *StopError
	if !errors.As(err, &se) {
		t.Fatalf("err = %T %v, want *StopError", err, err)
	}
	if st := e.(StatsReporter).LastStats(); st == nil || st.StopReason != "panic" || st != se.Stats {
		t.Errorf("LastStats = %+v, want the stop's record with StopReason panic", st)
	}
}

func TestStatsCarryStopReason(t *testing.T) {
	in := expensiveInput(t, 200)
	q := query(t, `retrieve reach(X, Y).`)
	e := NewSemiNaive(in, WithLimits(governor.Limits{MaxFacts: 50}))
	_, err := e.RetrieveContext(context.Background(), q)
	var se *StopError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StopError", err)
	}
	if se.Stats.StopReason != "limit:facts" {
		t.Errorf("StopReason = %q", se.Stats.StopReason)
	}
	if !strings.Contains(se.Stats.String(), "stop=limit:facts") {
		t.Errorf("stats string %q must mention the stop reason", se.Stats.String())
	}
	if sr, ok := e.(StatsReporter); ok {
		if st := sr.LastStats(); st == nil || st.StopReason != "limit:facts" {
			t.Errorf("LastStats = %+v, want governed stop recorded", st)
		}
	} else {
		t.Error("engine must implement StatsReporter")
	}
}
