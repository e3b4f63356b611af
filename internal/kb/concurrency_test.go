package kb

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kdb/internal/eval"
	"kdb/internal/parser"
	"kdb/internal/term"
)

// TestConcurrentQueriesAssertsCheckpoints is the lock-discipline
// stress test: readers (retrieve and the stats it returns), writers (Assert),
// and Checkpoint all run concurrently against a durable KB. On the
// seed this raced — Checkpoint and Close bypassed k.mu, so a
// checkpoint could truncate the WAL under a running assert. Run with
// -race.
func TestConcurrentQueriesAssertsCheckpoints(t *testing.T) {
	k, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	if err := k.LoadString("p(seed0). q(X) :- p(X)."); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
	}

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := k.Assert(term.NewAtom("p", term.Sym(fmt.Sprintf("w%d_%d", w, i)))); err != nil {
					fail("assert: %v", err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			subject, _ := parser.ParseAtom("q(X)")
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, st, err := k.evaluate(ctx, eval.Query{Subject: subject}, nil)
				if err != nil {
					fail("retrieve: %v", err)
					return
				}
				if st == nil || st.Facts == 0 {
					fail("retrieve returned stats %+v, want its own record", st)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := k.Checkpoint(); err != nil {
				fail("checkpoint: %v", err)
				return
			}
		}
	}()

	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Everything written before the checkpoints must still be
	// derivable after reopening.
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseUnderLoad closes the KB while queries and mutations are in
// flight: every operation either completes normally or reports
// ErrClosed — never a raw I/O error from the store closing underneath
// an evaluation.
func TestCloseUnderLoad(t *testing.T) {
	k, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := k.LoadString("p(a). p(b). q(X) :- p(X)."); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	subject, _ := parser.ParseAtom("q(X)")
	var wg sync.WaitGroup
	var unexpected atomic.Int32
	start := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < 200; i++ {
				var err error
				switch w % 3 {
				case 0:
					_, _, err = k.evaluate(ctx, eval.Query{Subject: subject}, nil)
				case 1:
					err = k.Assert(term.NewAtom("p", term.Sym(fmt.Sprintf("c%d_%d", w, i))))
				case 2:
					err = k.Checkpoint()
				}
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						unexpected.Add(1)
						t.Errorf("worker %d: unstructured post-close error: %v", w, err)
					}
					return
				}
			}
		}(w)
	}
	close(start)
	time.Sleep(2 * time.Millisecond)
	if err := k.Close(); err != nil {
		t.Fatalf("close under load: %v", err)
	}
	wg.Wait()

	// Idempotent double close.
	if err := k.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	// Every entry point reports the structured error now.
	if _, _, err := k.evaluate(ctx, eval.Query{Subject: subject}, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("retrieve after close: %v", err)
	}
	if err := k.Assert(term.NewAtom("p", term.Sym("late"))); !errors.Is(err, ErrClosed) {
		t.Errorf("assert after close: %v", err)
	}
	if err := k.Checkpoint(); !errors.Is(err, ErrClosed) {
		t.Errorf("checkpoint after close: %v", err)
	}
	if _, err := k.Retract(term.NewAtom("p", term.Sym("a"))); !errors.Is(err, ErrClosed) {
		t.Errorf("retract after close: %v", err)
	}
	if err := k.LoadString("r(z)."); !errors.Is(err, ErrClosed) {
		t.Errorf("load after close: %v", err)
	}
	if _, err := k.explain(ctx, subject, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("explain after close: %v", err)
	}
	if _, err := k.ExecStringContext(ctx, "describe q(X)."); !errors.Is(err, ErrClosed) {
		t.Errorf("describe after close: %v", err)
	}
	if _, err := k.CheckConstraintsContext(ctx); !errors.Is(err, ErrClosed) {
		t.Errorf("check after close: %v", err)
	}
}

// TestRetractDurable retracts a fact on a durable KB and confirms the
// tombstone survives a crash-style reopen (no checkpoint).
func TestRetractDurable(t *testing.T) {
	dir := t.TempDir()
	k, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.LoadString("p(a). p(b)."); err != nil {
		t.Fatal(err)
	}
	if removed, err := k.Retract(term.NewAtom("p", term.Sym("a"))); err != nil || !removed {
		t.Fatalf("retract: removed=%v err=%v", removed, err)
	}
	if removed, err := k.Retract(term.NewAtom("p", term.Sym("a"))); err != nil || removed {
		t.Fatalf("double retract: removed=%v err=%v", removed, err)
	}
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}

	k2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer k2.Close()
	subject, _ := parser.ParseAtom("p(X)")
	res, _, err := k2.evaluate(context.Background(), eval.Query{Subject: subject}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Atoms(subject); len(got) != 1 || got[0].String() != "p(b)" {
		t.Errorf("after reopen: %v, want only p(b)", got)
	}
}
