package chaos

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestChaosSeeds is the CI chaos matrix: 24 fixed seeds, each driving
// a full fault/crash scenario across two tenants. The seed is in the
// subtest name, so a failure line is its own reproduction recipe:
//
//	go test -race -run 'TestChaosSeeds/seed=7' ./internal/chaos/
func TestChaosSeeds(t *testing.T) {
	before := runtime.NumGoroutine()
	for seed := int64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := Config{Seed: seed, Ops: 150, Tenants: 2, Dir: t.TempDir()}
			if err := Run(cfg); err != nil {
				t.Fatalf("chaos scenario failed (repro: seed=%d): %v", seed, err)
			}
		})
	}
	// No scenario may leak goroutines: every KB was closed, and KBs
	// spawn no background workers outside evaluation. Allow a grace
	// period for runtime bookkeeping to settle.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if after := runtime.NumGoroutine(); after <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before scenarios, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestChaosChurnSeeds is the retract-heavy family: 256 possible edges
// instead of 36, larger loads and a retract every third operation, so
// deletion runs against relations of up to some 140 tuples with built
// indexes (the indexed probes of verifyEdges and the recursive rule's
// join build them), through every fault and crash point of the matrix
// above.
//
//	go test -race -run 'TestChaosChurnSeeds/seed=3' ./internal/chaos/
func TestChaosChurnSeeds(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := Config{Seed: seed, Ops: 600, Tenants: 2, Domain: 16, RetractPct: 33, Dir: t.TempDir()}
			if err := Run(cfg); err != nil {
				t.Fatalf("chaos scenario failed (repro: seed=%d): %v", seed, err)
			}
		})
	}
}

// TestChaosHeavy is a deeper single scenario for local soak testing;
// CI runs the matrix above instead.
func TestChaosHeavy(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy chaos scenario skipped in -short mode")
	}
	cfg := Config{Seed: 424242, Ops: 1200, Tenants: 3, Dir: t.TempDir()}
	if err := Run(cfg); err != nil {
		t.Fatalf("heavy chaos scenario failed (repro: seed=424242): %v", err)
	}
}
