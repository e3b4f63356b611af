package eval

import (
	"context"
	"reflect"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"kdb/internal/obs/profile"
	"kdb/internal/term"
)

// TestProfileDisabledAllocs is the zero-overhead gate for the profiling
// hook: with profiling off (nil ruleProfiler — the default for every
// engine), the per-rule and per-fact calls must not allocate. This
// mirrors TestProvenanceDisabledAllocs: observability that is off must
// be free.
func TestProfileDisabledAllocs(t *testing.T) {
	x, y := term.Var("X"), term.Var("Y")
	rule := term.NewRule(term.NewAtom("p", x, y), term.NewAtom("q", x, y))
	var rp *ruleProfiler
	allocs := testing.AllocsPerRun(200, func() {
		rp.begin(rule)
		rp.countLookup()
		rp.fresh()
		rp.end()
		if rp.finish() != nil {
			t.Fatal("nil profiler returned rows")
		}
	})
	if allocs != 0 {
		t.Errorf("disabled profile hook allocates %v per rule round, want 0", allocs)
	}
}

// TestProfileAcrossEngines: on a recursive program, every engine in
// profileEngines (the semi-naive engine alone profiles) has one row per
// source rule (the synthetic query rule excluded), each with at least
// one round, beside the answers it was profiling in the first place.
func TestProfileAcrossEngines(t *testing.T) {
	src := `
edge(a, b). edge(b, c). edge(c, d).
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
`
	wantRules := []string{
		"path(X, Y) :- edge(X, Y).",
		"path(X, Y) :- edge(X, Z), path(Z, Y).",
	}
	for _, pe := range profileEngines {
		t.Run(pe.name, func(t *testing.T) {
			e := pe.mk(load(t, src), WithProfile())
			res, err := e.RetrieveContext(context.Background(), query(t, `retrieve path(a, Y).`))
			if err != nil {
				t.Fatalf("retrieve: %v", err)
			}
			if got := len(res.Tuples); got != 3 {
				t.Fatalf("answers = %d, want 3", got)
			}
			st := e.(StatsReporter).LastStats()
			if st.Engine != pe.name {
				t.Errorf("profile engine = %q, want %q", st.Engine, pe.name)
			}
			if st.Wall <= 0 {
				t.Errorf("profile wall = %v, want > 0", st.Wall)
			}
			var got []string
			var tuples int64
			for _, r := range st.Profile {
				if r.Synthetic {
					continue
				}
				got = append(got, r.Rule)
				tuples += r.Tuples
				if r.Iterations <= 0 {
					t.Errorf("rule %q: iterations = %d, want > 0", r.Rule, r.Iterations)
				}
				if r.Wall < 0 {
					t.Errorf("rule %q: negative wall %v", r.Rule, r.Wall)
				}
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, wantRules) {
				t.Errorf("profiled rules = %v, want %v", got, wantRules)
			}
			if tuples <= 0 {
				t.Errorf("non-synthetic tuples = %d, want > 0", tuples)
			}
		})
	}
}

// TestProfileIndependentComponents: the rules of independent SCCs and of
// the component joining them all have rows in the one record.
func TestProfileIndependentComponents(t *testing.T) {
	src := `
a(1). a(2). b(1). b(2).
pa(X) :- a(X).
pb(X) :- b(X).
both(X) :- pa(X), pb(X).
`
	e := NewSemiNaive(load(t, src), WithProfile())
	if _, err := e.RetrieveContext(context.Background(), query(t, `retrieve both(X).`)); err != nil {
		t.Fatalf("retrieve: %v", err)
	}
	rules := 0
	for _, r := range e.(StatsReporter).LastStats().Profile {
		if !r.Synthetic {
			rules++
		}
	}
	if rules != 3 {
		t.Errorf("profiled %d source rules, want 3", rules)
	}
}

// TestProfileProbeSplit checks the index/full-scan split: probes served
// by an index must appear as Probes - FullScans, and the rows must add
// up to the engine totals.
func TestProfileProbeSplit(t *testing.T) {
	src := `
edge(a, b). edge(b, c). edge(c, d). edge(d, e).
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
`
	e := NewSemiNaive(load(t, src), WithProfile())
	if _, err := e.RetrieveContext(context.Background(), query(t, `retrieve path(X, Y).`)); err != nil {
		t.Fatalf("retrieve: %v", err)
	}
	st := e.(StatsReporter).LastStats()
	var probes, scans int64
	for _, r := range st.Profile {
		probes += r.Probes
		scans += r.FullScans
		if r.FullScans > r.Probes {
			t.Errorf("rule %q: full_scans %d > probes %d", r.Rule, r.FullScans, r.Probes)
		}
	}
	if probes == 0 || scans == probes {
		t.Fatalf("probes %d, full scans %d: want some, and some index-served", probes, scans)
	}
	if st.Probes != probes || st.FullScans != scans {
		t.Errorf("engine totals: probes %d, full scans %d; the rows sum to %d, %d", st.Probes, st.FullScans, probes, scans)
	}
}

// TestProfileAllocEstimate: a rule's allocation estimate is its tuples
// times the size of a tuple of its arity, one term.Term per column: an
// arity-2 rule deriving 7 tuples reads 448 B.
func TestProfileAllocEstimate(t *testing.T) {
	src := `
e(1, 2). e(2, 3). e(3, 4). e(4, 5). e(5, 6). e(6, 7). e(7, 8).
p(X, Y) :- e(X, Y).
`
	e := NewSemiNaive(load(t, src), WithProfile())
	if _, err := e.RetrieveContext(context.Background(), query(t, `retrieve p(X, Y).`)); err != nil {
		t.Fatalf("retrieve: %v", err)
	}
	st := e.(StatsReporter).LastStats()
	for _, r := range st.Profile {
		if r.Rule != "p(X, Y) :- e(X, Y)." {
			continue
		}
		want := r.Tuples * int64(2*unsafe.Sizeof(term.Term{}))
		if r.Tuples != 7 || r.AllocBytes != want || want != 448 {
			t.Errorf("%d tuples estimate %d B, want 7 and %d (448)", r.Tuples, r.AllocBytes, want)
		}
		if text := profile.Text(st.Engine, st.Wall, st.Profile); !strings.Contains(text, "alloc~448B") {
			t.Errorf("rendering lacks alloc~448B:\n%s", text)
		}
		return
	}
	t.Fatalf("no row for p: %+v", st.Profile)
}
