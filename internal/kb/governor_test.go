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

func TestKBContextDeadline(t *testing.T) {
	for _, engine := range []EngineKind{EngineNaive, EngineSemiNaive, EngineTopDown, EngineMagic} {
		engine := engine
		t.Run(string(engine), func(t *testing.T) {
			k := cycleKB(t, 500)
			if err := k.SetEngine(engine); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			start := time.Now()
			_, err := k.ExecStringContext(ctx, `retrieve reach(X, Y).`)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("err = %v, want to wrap context.DeadlineExceeded", err)
			}
			if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
				t.Errorf("took %v to observe the deadline", elapsed)
			}
			// The governed stop must be observable after the fact.
			if st := k.LastStats(); st == nil || st.StopReason != "deadline" {
				t.Errorf("LastStats = %+v, want StopReason deadline", st)
			}
		})
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
	_, err := k.ExecString(`retrieve reach(X, Y).`)
	var le *governor.LimitError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want *LimitError", err)
	}
	if le.Kind != governor.LimitFacts {
		t.Errorf("kind = %q, want %q", le.Kind, governor.LimitFacts)
	}
	// Raising the limits at runtime lets the same query finish.
	k.SetQueryLimits(governor.Limits{})
	if _, err := k.ExecString(`retrieve reach(n0, Y).`); err != nil {
		t.Fatalf("after clearing limits: %v", err)
	}
}

func TestKBDescribeNodeLimit(t *testing.T) {
	k := loadKB(t, universityKB)
	k.SetQueryLimits(governor.Limits{MaxDescribeNodes: 1})
	_, err := k.ExecString(`describe can_ta(X, databases).`)
	var le *governor.LimitError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want *LimitError", err)
	}
	if le.Kind != governor.LimitDescribeNodes {
		t.Errorf("kind = %q, want %q", le.Kind, governor.LimitDescribeNodes)
	}
	k.SetQueryLimits(governor.Limits{})
	if _, err := k.ExecString(`describe can_ta(X, databases).`); err != nil {
		t.Fatalf("after clearing limits: %v", err)
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
	k.SetQueryLimits(governor.Limits{MaxDescribeNodes: 1})
	var le *governor.LimitError
	if _, err := k.ExecString(stmt); !errors.As(err, &le) || le.Kind != governor.LimitDescribeNodes {
		t.Errorf("MaxDescribeNodes 1: err = %v, want a describe-nodes *LimitError", err)
	}
	k.SetQueryLimits(governor.Limits{})
	before := describeNodes()
	res, err := k.ExecStringContext(context.Background(), stmt)
	if err != nil {
		t.Fatalf("after clearing limits: %v", err)
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
	eval.DeriveHook = func(term.Atom) { panic("injected kb panic") }
	defer func() { eval.DeriveHook = nil }()
	_, err := k.ExecString(`retrieve reach(X, Y).`)
	var pe *governor.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
}
