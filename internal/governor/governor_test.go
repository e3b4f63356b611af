package governor

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestNilGovernorIsUnlimited(t *testing.T) {
	var g *Governor
	if err := g.Err(); err != nil {
		t.Errorf("nil Err = %v", err)
	}
	if err := g.Tick(); err != nil {
		t.Errorf("nil Tick = %v", err)
	}
	if err := g.CountFacts(1 << 30); err != nil {
		t.Errorf("nil CountFacts = %v", err)
	}
	if err := g.CheckIterations(1 << 30); err != nil {
		t.Errorf("nil CheckIterations = %v", err)
	}
	if err := g.CheckDescribeNodes(1 << 30); err != nil {
		t.Errorf("nil CheckDescribeNodes = %v", err)
	}
}

func TestZeroLimitsAreUnlimited(t *testing.T) {
	g, cancel := New(context.Background(), Limits{})
	defer cancel()
	if err := g.CountFacts(1 << 20); err != nil {
		t.Errorf("CountFacts with zero limit = %v", err)
	}
	if err := g.CheckIterations(1 << 20); err != nil {
		t.Errorf("CheckIterations with zero limit = %v", err)
	}
}

func TestFactLimit(t *testing.T) {
	g, cancel := New(context.Background(), Limits{MaxFacts: 10})
	defer cancel()
	if err := g.CountFacts(10); err != nil {
		t.Fatalf("at the limit: %v", err)
	}
	err := g.CountFacts(1)
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("over the limit = %v, want *LimitError", err)
	}
	if le.Kind != LimitFacts || le.Limit != 10 {
		t.Errorf("LimitError = %+v", le)
	}
	if StopReason(err) != "limit:facts" {
		t.Errorf("StopReason = %q", StopReason(err))
	}
}

func TestIterationTableAndDescribeLimits(t *testing.T) {
	g, cancel := New(context.Background(), Limits{MaxIterations: 3, MaxDescribeNodes: 7})
	defer cancel()
	if err := g.CheckIterations(3); err != nil {
		t.Errorf("iterations at limit: %v", err)
	}
	if err := g.CheckIterations(4); err == nil || StopReason(err) != "limit:iterations" {
		t.Errorf("iterations over limit = %v", err)
	}
	if err := g.CheckDescribeNodes(8); err == nil || StopReason(err) != "limit:describe-nodes" {
		t.Errorf("describe nodes over limit = %v", err)
	}
}

func TestCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g, gcancel := New(ctx, Limits{})
	defer gcancel()
	err := g.Err()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("Err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Err must also unwrap to context.Canceled, got %v", err)
	}
	if StopReason(err) != "canceled" {
		t.Errorf("StopReason = %q", StopReason(err))
	}
}

func TestDeadline(t *testing.T) {
	g, cancel := New(context.Background(), Limits{MaxWall: time.Nanosecond})
	defer cancel()
	deadline := time.Now().Add(time.Second)
	var err error
	for time.Now().Before(deadline) {
		if err = g.Err(); err != nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err = %v, want DeadlineExceeded", err)
	}
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("deadline error must match ErrCanceled, got %v", err)
	}
	if StopReason(err) != "deadline" {
		t.Errorf("StopReason = %q", StopReason(err))
	}
}

func TestTickAmortization(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g, gcancel := New(ctx, Limits{})
	defer gcancel()
	cancel()
	// Tick consults the context only every tickInterval calls, so a
	// cancellation must surface within one interval.
	var err error
	for i := 0; i < tickInterval+1; i++ {
		if err = g.Tick(); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("cancellation not observed within one tick interval: %v", err)
	}
}

func TestRecoverConvertsPanic(t *testing.T) {
	f := func() (err error) {
		defer Recover(&err)
		panic("boom")
	}
	err := f()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if StopReason(err) != "panic" {
		t.Errorf("StopReason = %q", StopReason(err))
	}
}

func TestRecoverLeavesRealErrors(t *testing.T) {
	want := errors.New("ordinary")
	f := func() (err error) {
		defer Recover(&err)
		return want
	}
	if err := f(); !errors.Is(err, want) {
		t.Errorf("Recover clobbered a normal error: %v", err)
	}
}

func TestStopReasonPlainError(t *testing.T) {
	if got := StopReason(errors.New("x")); got != "error" {
		t.Errorf("StopReason(plain) = %q", got)
	}
	if got := StopReason(nil); got != "" {
		t.Errorf("StopReason(nil) = %q", got)
	}
}
