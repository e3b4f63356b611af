package kb

import (
	"context"
	"errors"
	"fmt"
	"strings"
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

// TestKBContextDeadline: every evaluating statement stops at the
// context's deadline and records the stop.
func TestKBContextDeadline(t *testing.T) {
	for _, kind := range []string{"retrieve", "explain", "profile"} {
		t.Run(kind, func(t *testing.T) {
			k := cycleKB(t, 500)
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
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
				t.Errorf("err = %v, want a *eval.StopError whose stats stop at the deadline", err)
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
