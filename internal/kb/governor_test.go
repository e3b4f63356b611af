package kb

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kdb/internal/eval"
	"kdb/internal/governor"
	"kdb/internal/obs"
	"kdb/internal/term"
)

// cycleKB is an expensive finite program: the transitive closure of an
// n-node cycle (n² pairs, ~n fixpoint rounds).
func cycleKB(t testing.TB, n int) *KB {
	t.Helper()
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "edge(n%d, n%d).\n", i, (i+1)%n)
	}
	sb.WriteString("reach(X, Y) :- edge(X, Y).\n")
	sb.WriteString("reach(X, Y) :- edge(X, Z), reach(Z, Y).\n")
	return loadKB(t, sb.String())
}

// expireOnPoll is a context whose deadline passes once the statement
// is under way: its first poll, made before the recursive component
// starts, passes, and every later one, made while it runs, reports
// context.DeadlineExceeded. The deadline so falls inside the
// evaluation however fast the machine is.
type expireOnPoll struct {
	context.Context
	polls atomic.Int32
	done  chan struct{}
	once  sync.Once
}

func newExpireOnPoll() *expireOnPoll {
	return &expireOnPoll{Context: context.Background(), done: make(chan struct{})}
}

func (c *expireOnPoll) Err() error {
	if c.polls.Add(1) < 2 {
		return nil
	}
	c.once.Do(func() { close(c.done) })
	return context.DeadlineExceeded
}

func (c *expireOnPoll) Done() <-chan struct{} { return c.done }

// TestKBContextDeadline: every evaluating statement stops at the
// context's deadline and records the stop.
func TestKBContextDeadline(t *testing.T) {
	for _, kind := range []string{"retrieve", "explain", "profile"} {
		t.Run(kind, func(t *testing.T) {
			k := cycleKB(t, 500)
			ctx := newExpireOnPoll()
			start := time.Now()
			_, err := k.ExecStringContext(ctx, kind+` reach(X, Y).`)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("err = %v, want to wrap context.DeadlineExceeded", err)
			}
			if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
				t.Errorf("took %v to observe the deadline", elapsed)
			}
			// The governed stop carries the statement's record.
			var se *eval.StopError
			if !errors.As(err, &se) || se.Stats == nil || se.Stats.StopReason != "deadline" {
				t.Fatalf("err = %v, want a *eval.StopError whose stats stop at the deadline", err)
			}
			if se.Stats.Facts == 0 {
				t.Errorf("the deadline stopped the statement before it derived anything")
			}
		})
	}
}

// TestOrRetrieveQuotaIsPerStatement: MaxFacts bounds a statement, not
// each of its disjuncts. Each disjunct alone derives 16 facts, within a
// quota of 20; together they derive 32 and stop, and so do the same
// disjuncts repeated.
func TestOrRetrieveQuotaIsPerStatement(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&sb, "a(%d).\nb(%d).\n", i, i+8)
	}
	sb.WriteString("p(X) :- a(X).\nq(X) :- b(X).\n")
	k := New(WithQueryLimits(governor.Limits{MaxFacts: 20}))
	if err := k.LoadString(sb.String()); err != nil {
		t.Fatal(err)
	}
	for _, stmt := range []string{`retrieve ans(X) where p(X).`, `retrieve ans(X) where q(X).`} {
		if res, err := k.ExecStringContext(context.Background(), stmt); err != nil || res.Stats.Facts != 16 {
			t.Fatalf("%s: err = %v, want 16 facts within the quota", stmt, err)
		}
	}
	for _, stmt := range []string{
		`retrieve ans(X) where p(X) or q(X).`,
		`retrieve ans(X) where p(X) or q(X) or p(X) or q(X).`,
	} {
		_, err := k.ExecStringContext(context.Background(), stmt)
		var le *governor.LimitError
		if !errors.As(err, &le) || le.Kind != governor.LimitFacts {
			t.Errorf("%s: err = %v, want a *LimitError on facts", stmt, err)
		}
	}
}

func TestKBQueryLimitsOption(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&sb, "edge(n%d, n%d).\n", i, (i+1)%200)
	}
	sb.WriteString("reach(X, Y) :- edge(X, Y).\n")
	sb.WriteString("reach(X, Y) :- edge(X, Z), reach(Z, Y).\n")
	k := New(WithQueryLimits(governor.Limits{MaxFacts: 100}))
	if err := k.LoadString(sb.String()); err != nil {
		t.Fatal(err)
	}
	_, err := k.ExecStringContext(context.Background(), `retrieve reach(X, Y).`)
	var le *governor.LimitError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want *LimitError", err)
	}
	if le.Kind != governor.LimitFacts {
		t.Errorf("kind = %q, want %q", le.Kind, governor.LimitFacts)
	}
	// A request may tighten the configured limits but never loosen them.
	loose := ContextWithLimits(context.Background(), governor.Limits{MaxFacts: 1 << 20})
	if _, err := k.ExecStringContext(loose, `retrieve reach(X, Y).`); !errors.As(err, &le) {
		t.Fatalf("a looser request lifted the configured limit: err = %v", err)
	}
}

func TestKBDescribeNodeLimit(t *testing.T) {
	k := loadKB(t, universityKB)
	tight := ContextWithLimits(context.Background(), governor.Limits{MaxDescribeNodes: 1})
	_, err := k.ExecStringContext(tight, `describe can_ta(X, databases).`)
	var le *governor.LimitError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want *LimitError", err)
	}
	if le.Kind != governor.LimitDescribeNodes {
		t.Errorf("kind = %q, want %q", le.Kind, governor.LimitDescribeNodes)
	}
	if _, err := k.ExecStringContext(context.Background(), `describe can_ta(X, databases).`); err != nil {
		t.Fatalf("without the request's limit: %v", err)
	}
}

func TestKBDescribeContextCancel(t *testing.T) {
	k := loadKB(t, universityKB)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := k.ExecStringContext(ctx, `describe can_ta(X, databases).`)
	if !errors.Is(err, governor.ErrCanceled) {
		t.Errorf("err = %v, want governor.ErrCanceled", err)
	}
}

// `describe * where ψ` runs one search per concept: the statement's
// context and the configured limits govern all of them, and the metrics
// see the nodes of all of them.
func TestKBWildcardDescribeGoverned(t *testing.T) {
	reg := obs.NewRegistry()
	k := New(WithMetrics(reg))
	if err := k.LoadString(universityKB); err != nil {
		t.Fatal(err)
	}
	describeNodes := func() (n float64) {
		for _, p := range reg.Snapshot() {
			if p.Name == "kdb_describe_nodes_total" {
				n += p.Value
			}
		}
		return n
	}
	const stmt = `describe * where honor(X).`
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := k.ExecStringContext(ctx, stmt); !errors.Is(err, governor.ErrCanceled) {
		t.Errorf("cancelled context: err = %v, want governor.ErrCanceled", err)
	}
	tight := ContextWithLimits(context.Background(), governor.Limits{MaxDescribeNodes: 1})
	var le *governor.LimitError
	if _, err := k.ExecStringContext(tight, stmt); !errors.As(err, &le) || le.Kind != governor.LimitDescribeNodes {
		t.Errorf("MaxDescribeNodes 1: err = %v, want a describe-nodes *LimitError", err)
	}
	before := describeNodes()
	res, err := k.ExecStringContext(context.Background(), stmt)
	if err != nil {
		t.Fatalf("without the request's limit: %v", err)
	}
	if len(res.Wildcard) != 1 {
		t.Errorf("entries = %v, want just can_ta", res.Wildcard)
	}
	if after := describeNodes(); after <= before {
		t.Errorf("kdb_describe_nodes_total stayed at %v over a wildcard describe", after)
	}
}

func TestKBPanicSurfacesAsError(t *testing.T) {
	k := cycleKB(t, 5)
	if _, err := k.ExecStringContext(context.Background(), `retrieve reach(X, Y).`); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	eval.DeriveHook = func(term.Atom) { panic("injected kb panic") }
	defer func() { eval.DeriveHook = nil }()
	_, err := k.ExecStringContext(context.Background(), `retrieve reach(X, Y).`)
	var pe *governor.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	// The panicking statement carries its own record.
	var se *eval.StopError
	if !errors.As(err, &se) || se.Stats == nil || se.Stats.StopReason != "panic" {
		t.Errorf("err = %v, want a *eval.StopError whose stats stop on the panic", err)
	}
}

// TestDescribeQuotaIsPerStatement: MaxDescribeNodes bounds a describe
// statement, not each of its searches. One disjunct's search expands 3
// nodes, within a quota of 3; the same disjunct written three times
// expands 9 and stops. A wildcard whose every subject searches within a
// quota stops when all of them together do not.
func TestDescribeQuotaIsPerStatement(t *testing.T) {
	k := New()
	if err := k.LoadFile("../../testdata/university.kdb"); err != nil {
		t.Fatal(err)
	}
	within := func(limit int, stmt string) (*ExecResult, error) {
		return k.ExecStringContext(ContextWithLimits(context.Background(), governor.Limits{MaxDescribeNodes: limit}), stmt)
	}
	stopped := func(err error) bool {
		var le *governor.LimitError
		return errors.As(err, &le) && le.Kind == governor.LimitDescribeNodes
	}
	const one = `describe honor(X) where student(X, M, G).`
	if res, err := within(3, one); err != nil || res.Describe.Nodes != 3 {
		t.Fatalf("%s within a quota of 3: err = %v, want 3 nodes", one, err)
	}
	const thrice = `describe honor(X) where student(X, M, G) or student(X, M, G) or student(X, M, G).`
	if _, err := within(3, thrice); !stopped(err) {
		t.Errorf("%s within a quota of 3: err = %v, want a describe-nodes *LimitError", thrice, err)
	}
	if res, err := within(9, thrice); err != nil || res.Describe.Nodes != 9 {
		t.Errorf("%s within a quota of 9: err = %v, want 9 nodes", thrice, err)
	}

	// The wildcard searches every concept the hypothesis does not name.
	const hyp = `enroll(X, C)`
	res, err := k.ExecStringContext(context.Background(), `describe * where `+hyp+`.`)
	if err != nil {
		t.Fatal(err)
	}
	total, most, subjects := res.wildcardSearch.Nodes, 0, 0
	seen := map[string]bool{}
	for _, r := range k.Rules() {
		if seen[r.Head.Pred] {
			continue
		}
		seen[r.Head.Pred] = true
		subject := term.NewAtom(r.Head.Pred, variables("W", len(r.Head.Args))...)
		one, err := k.ExecStringContext(context.Background(), `describe `+subject.String()+` where `+hyp+`.`)
		if err != nil {
			t.Fatal(err)
		}
		most = max(most, one.Describe.Nodes)
		subjects++
	}
	if subjects < 2 || most >= total {
		t.Fatalf("%d subjects, the largest search %d nodes of %d: the wildcard needs two searches", subjects, most, total)
	}
	wildcard := `describe * where ` + hyp + `.`
	if _, err := within(most, wildcard); !stopped(err) {
		t.Errorf("%s within a quota of %d (every subject's search fits, all %d nodes do not): err = %v, want a describe-nodes *LimitError",
			wildcard, most, total, err)
	}
	if _, err := within(total, wildcard); err != nil {
		t.Errorf("%s within a quota of its %d nodes: %v", wildcard, total, err)
	}
}
