package eval

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"kdb/internal/storage"
	"kdb/internal/term"
)

// --- scheduler ---

// TestRunDAGRespectsDependencies: every node runs exactly once, after all
// of its dependencies, for random DAGs and worker counts.
func TestRunDAGRespectsDependencies(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		deps := make([][]int, n)
		for i := 1; i < n; i++ {
			for j := 0; j < i; j++ {
				if r.Intn(3) == 0 {
					deps[i] = append(deps[i], j)
				}
			}
		}
		var mu sync.Mutex
		finished := make([]bool, n)
		ran := make([]int, n)
		err := runDAG(1+r.Intn(8), deps, func(i, _ int) error {
			mu.Lock()
			defer mu.Unlock()
			for _, j := range deps[i] {
				if !finished[j] {
					t.Logf("seed %d: node %d ran before dependency %d", seed, i, j)
					return fmt.Errorf("order violation")
				}
			}
			ran[i]++
			finished[i] = true
			return nil
		})
		if err != nil {
			return false
		}
		for i, c := range ran {
			if c != 1 {
				t.Logf("seed %d: node %d ran %d times", seed, i, c)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestRunDAGBoundsWorkers: no more than the requested number of node
// evaluations are ever in flight.
func TestRunDAGBoundsWorkers(t *testing.T) {
	const n, workers = 24, 3
	deps := make([][]int, n) // fully independent
	var inFlight, peak atomic.Int64
	err := runDAG(workers, deps, func(int, int) error {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		inFlight.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d exceeds %d workers", p, workers)
	}
}

// TestRunDAGPropagatesError: the first error is returned and the DAG
// still drains (no goroutine leak, no deadlock).
func TestRunDAGPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	// 0 ← 1 ← 2 ← … a chain, failing in the middle.
	const n = 10
	deps := make([][]int, n)
	for i := 1; i < n; i++ {
		deps[i] = []int{i - 1}
	}
	var after atomic.Int64
	err := runDAG(4, deps, func(i, _ int) error {
		if i == 5 {
			return boom
		}
		if i > 5 {
			after.Add(1)
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if after.Load() != 0 {
		t.Errorf("%d nodes downstream of the failure still ran", after.Load())
	}
}

// --- satellite regressions ---

// TestFullLookupSuppressesStoredDuplicates: when a predicate has both
// derived and stored tuples, the component's resolve must enumerate each
// fact once — stored tuples already derived are suppressed.
func TestFullLookupSuppressesStoredDuplicates(t *testing.T) {
	in := load(t, `p(a). p(b).`)
	d := newDerived(nil)
	// p(a) is both stored and derived; p(c) only derived; p(b) only stored.
	for _, name := range []string{"a", "c"} {
		if _, err := d.insert(term.NewAtom("p", term.Sym(name))); err != nil {
			t.Fatal(err)
		}
	}
	drv := newHeadsDriver(in.Store)
	drv.d = d
	x := term.Var("X")
	rule := term.NewRule(term.NewAtom("q", x), term.NewAtom("p", x))
	if err := newRunner(rule, compileBody(rule.Head, rule.Body), drv).exec(); err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	for _, head := range drv.heads {
		counts[head.Args[0].Name()]++
	}
	want := map[string]int{"a": 1, "b": 1, "c": 1}
	if !reflect.DeepEqual(counts, want) {
		t.Fatalf("enumerated %v, want each of a, b, c exactly once", drv.heads)
	}
	if drv.cs.Lookups != 1 {
		t.Errorf("Lookups = %d, want 1", drv.cs.Lookups)
	}
}

// TestHybridPredicateEngineAgreement: a predicate backed by both stored
// facts and rules yields the same, duplicate-free answer on every engine.
func TestHybridPredicateEngineAgreement(t *testing.T) {
	in := load(t, `
q(a). q(b).
p(a).
p(X) :- q(X).
r(X, Y) :- p(X), p(Y).
`)
	out := retrieveAll(t, in, query(t, `retrieve r(X, Y).`))
	// p's extension is {a, b}; r must be exactly the 4 ordered pairs.
	if len(out["seminaive"]) != 4 {
		t.Fatalf("r = %v, want 4 tuples", out["seminaive"])
	}
}

// TestChooseAtomReportsOffender: the "unbound comparison" error must name
// the actual unevaluable comparison with the bindings of that moment
// applied, not whatever atom happens to be first in the body — and only
// when evaluation reaches it.
func TestChooseAtomReportsOffender(t *testing.T) {
	// body[0] is an evaluable equality; the offender is the later
	// comparison whose right side stays unbound.
	x, y := term.Var("X"), term.Var("Y")
	rule := term.NewRule(term.NewAtom("q", x),
		term.NewAtom(term.PredEq, x, term.Num(5)),
		term.NewAtom(term.PredGt, x, y),
	)
	drv := newHeadsDriver(storage.NewMemory())
	err := newRunner(rule, compileBody(rule.Head, rule.Body), drv).exec()
	if err == nil {
		t.Fatal("expected an unbound-comparison error")
	}
	if !strings.Contains(err.Error(), "5 > Y") {
		t.Errorf("error %q does not name the offending comparison 5 > Y", err)
	}
	if strings.Contains(err.Error(), "= 5") {
		t.Errorf("error %q names the equality instead of the offender", err)
	}

	// Behind an atom with no tuples the same comparison is never reached.
	rule.Body = append(term.Formula{term.NewAtom("nothing", x)}, rule.Body[1])
	if err := newRunner(rule, compileBody(rule.Head, rule.Body), drv).exec(); err != nil {
		t.Errorf("unreached comparison raised %v", err)
	}
}

// TestCallKeyManyVariables: variable ids must be encoded injectively. The
// old single-byte encoding ('0'+id) wraps at 256, making an atom whose
// 257th distinct variable repeats nothing collide with one whose last
// position repeats the first variable.
func TestCallKeyManyVariables(t *testing.T) {
	const n = 257
	distinct := make([]term.Term, n)
	for i := range distinct {
		distinct[i] = term.Var(fmt.Sprintf("V%d", i))
	}
	repeated := append([]term.Term(nil), distinct...)
	repeated[n-1] = distinct[0]
	a := term.Atom{Pred: "p", Args: distinct}
	b := term.Atom{Pred: "p", Args: repeated}
	if callKey(a) == callKey(b) {
		t.Error("257 distinct variables collide with a repeated-variable atom")
	}
	// Renaming must not matter: the key abstracts variable identity.
	renamed := make([]term.Term, n)
	for i := range renamed {
		renamed[i] = term.Var(fmt.Sprintf("W%d", i))
	}
	if callKey(a) != callKey(term.Atom{Pred: "p", Args: renamed}) {
		t.Error("alpha-equivalent calls must share a table key")
	}
	// Constants at different positions must not be confused with ids.
	c1 := term.NewAtom("p", term.Sym("x"), term.Var("A"))
	c2 := term.NewAtom("p", term.Var("A"), term.Sym("x"))
	if callKey(c1) == callKey(c2) {
		t.Error("bound-position pattern must be part of the key")
	}
}

// --- parallel evaluation ---

// wideInput builds several independent chain predicates: the SCC
// condensation has many mutually independent recursive components, so the
// parallel scheduler actually has work to spread.
func wideInput(tb testing.TB, chains, length int) Input {
	var b strings.Builder
	for c := 0; c < chains; c++ {
		for i := 0; i < length; i++ {
			fmt.Fprintf(&b, "edge%d(n%04d, n%04d).\n", c, i, i+1)
		}
		fmt.Fprintf(&b, "path%d(X, Y) :- edge%d(X, Y).\n", c, c)
		fmt.Fprintf(&b, "path%d(X, Y) :- edge%d(X, Z), path%d(Z, Y).\n", c, c, c)
	}
	// A top predicate depending on every chain, so one query reaches all
	// components.
	b.WriteString("top(X, Y) :- path0(X, Y)")
	for c := 1; c < chains; c++ {
		fmt.Fprintf(&b, ", path%d(X, Y)", c)
	}
	b.WriteString(".\n")
	return load(tb, b.String())
}

// TestParallelMatchesSequential: the parallel engines agree with their
// sequential baselines on a workload with many independent components.
func TestParallelMatchesSequential(t *testing.T) {
	in := wideInput(t, 6, 12)
	q := query(t, `retrieve top(X, Y).`)
	seq, err := NewSemiNaive(in).Retrieve(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []Engine{
		NewSemiNaive(in, WithWorkers(8)),
		NewNaive(in, WithWorkers(8)),
		NewMagic(in, WithWorkers(8)),
		NewSemiNaive(in, WithWorkers(0)), // 0 → GOMAXPROCS
	} {
		res, err := e.Retrieve(q)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if !reflect.DeepEqual(seq.Strings(), res.Strings()) {
			t.Errorf("%s disagrees with sequential semi-naive", e.Name())
		}
	}
}

// TestParallelEngineNames: the worker count is visible in the engine name
// so differential tests and stats keep the variants apart.
func TestParallelEngineNames(t *testing.T) {
	in := load(t, `p(a).`)
	if got := NewSemiNaive(in).Name(); got != "seminaive" {
		t.Errorf("sequential name = %q", got)
	}
	if got := NewSemiNaive(in, WithWorkers(4)).Name(); got != "seminaive-par" {
		t.Errorf("parallel name = %q", got)
	}
	if got := NewNaive(in, WithWorkers(4)).Name(); got != "naive-par" {
		t.Errorf("parallel naive name = %q", got)
	}
}

// TestQuickParallelAgreesOnRandomPrograms: randomized safe programs with
// several interdependent predicates evaluate identically on one worker
// and many. Run under -race this also exercises the scheduler's
// synchronization.
func TestQuickParallelAgreesOnRandomPrograms(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var b strings.Builder
		nodes := 4 + r.Intn(4)
		// Two random edge relations.
		for _, rel := range []string{"e1", "e2"} {
			for i := 0; i < 8; i++ {
				fmt.Fprintf(&b, "%s(n%d, n%d).\n", rel, r.Intn(nodes), r.Intn(nodes))
			}
		}
		// Random safe rules over a fixed predicate vocabulary: every rule
		// template is range-restricted, so any subset forms a safe program.
		templates := []string{
			"p1(X, Y) :- e1(X, Y).",
			"p1(X, Y) :- e1(X, Z), p1(Z, Y).",
			"p2(X, Y) :- e2(X, Y).",
			"p2(X, Y) :- p2(X, Z), e2(Z, Y).",
			"p3(X, Y) :- p1(X, Y), p2(X, Y).",
			"p3(X, Y) :- p1(X, Z), p2(Z, Y).",
			"p4(X) :- p3(X, Y).",
			"p4(X) :- e1(X, X).",
			"p5(X, Y) :- p3(X, Y), p4(X), p4(Y).",
		}
		for _, tpl := range templates {
			if r.Intn(4) > 0 { // keep most templates, drop some at random
				b.WriteString(tpl + "\n")
			}
		}
		// Guarantee the queried predicates exist.
		b.WriteString("q(X, Y) :- p1(X, Y).\nq(X, Y) :- e2(X, Y).\n")
		in := load(t, b.String())
		q := query(t, `retrieve q(X, Y).`)
		base, err := NewNaive(in).Retrieve(q)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for _, e := range []Engine{
			NewSemiNaive(in),
			NewSemiNaive(in, WithWorkers(8)),
			NewNaive(in, WithWorkers(8)),
			NewTopDown(in),
			NewMagic(in),
			NewMagic(in, WithWorkers(8)),
		} {
			res, err := e.Retrieve(q)
			if err != nil {
				t.Logf("seed %d %s: %v", seed, e.Name(), err)
				return false
			}
			if !reflect.DeepEqual(base.Strings(), res.Strings()) {
				t.Logf("seed %d: %s=%v naive=%v", seed, e.Name(), res.Strings(), base.Strings())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// --- stats ---

// TestEvalStatsChain: the semi-naive record reports the recursive
// component's iteration count, delta trajectory, and storage counters.
func TestEvalStatsChain(t *testing.T) {
	in := load(t, `
e(n1, n2). e(n2, n3). e(n3, n4). e(n4, n5).
path(X, Y) :- e(X, Y).
path(X, Y) :- e(X, Z), path(Z, Y).
`)
	e := NewSemiNaive(in)
	res, err := e.Retrieve(query(t, `retrieve path(X, Y).`))
	if err != nil {
		t.Fatal(err)
	}
	st := e.(StatsReporter).LastStats()
	if st == nil {
		t.Fatal("no stats recorded")
	}
	if st.Engine != "seminaive" || st.Workers != 1 {
		t.Errorf("engine=%q workers=%d", st.Engine, st.Workers)
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

// TestEvalStatsParallelWorkers: the parallel record carries the worker
// count and the same per-component facts as the sequential run.
func TestEvalStatsParallelWorkers(t *testing.T) {
	in := wideInput(t, 4, 8)
	q := query(t, `retrieve top(X, Y).`)
	seq := NewSemiNaive(in)
	par := NewSemiNaive(in, WithWorkers(4))
	if _, err := seq.Retrieve(q); err != nil {
		t.Fatal(err)
	}
	if _, err := par.Retrieve(q); err != nil {
		t.Fatal(err)
	}
	sst := seq.(StatsReporter).LastStats()
	pst := par.(StatsReporter).LastStats()
	if pst.Workers != 4 || pst.Engine != "seminaive-par" {
		t.Errorf("parallel stats: engine=%q workers=%d", pst.Engine, pst.Workers)
	}
	if sst.Facts != pst.Facts {
		t.Errorf("facts differ: seq=%d par=%d", sst.Facts, pst.Facts)
	}
	facts := func(st *EvalStats) map[string]int {
		m := make(map[string]int)
		for _, c := range st.Components {
			if !c.Skipped {
				m[strings.Join(c.Preds, " ")] = c.Facts
			}
		}
		return m
	}
	if !reflect.DeepEqual(facts(sst), facts(pst)) {
		t.Errorf("per-component facts differ:\nseq: %v\npar: %v", facts(sst), facts(pst))
	}
}

// TestTopDownStats: the goal-directed engine reports passes, tables, and
// lookups.
func TestTopDownStats(t *testing.T) {
	in := load(t, universityDB)
	e := NewTopDown(in)
	if _, err := e.Retrieve(query(t, `retrieve can_ta(X, databases).`)); err != nil {
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

// --- parallel benchmarks (acceptance: parity on chains, win on wide DAGs) ---

func benchEngineInput(b *testing.B, e Engine, in Input, qs string) {
	q := query(b, qs)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Retrieve(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRetrieveSemiNaiveParChain50(b *testing.B) {
	in := chainInput(b, 50)
	benchEngineInput(b, NewSemiNaive(in, WithWorkers(0)), in, `retrieve path(X, Y).`)
}

func BenchmarkRetrieveSemiNaiveWide(b *testing.B) {
	in := wideInput(b, 8, 30)
	benchEngineInput(b, NewSemiNaive(in), in, `retrieve top(X, Y).`)
}

func BenchmarkRetrieveSemiNaiveParWide(b *testing.B) {
	in := wideInput(b, 8, 30)
	benchEngineInput(b, NewSemiNaive(in, WithWorkers(0)), in, `retrieve top(X, Y).`)
}
