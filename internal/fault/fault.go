// Package fault is where failure is modelled for tests. Storage reaches
// the file system only through the FS seam (Disk), which forwards to
// package os; a test installs a SimDisk in its place (SetDisk), which
// fails any operation on request and, when it crashes, keeps only what
// was synced. The server's fragile paths are not file operations, so
// they keep named failpoints: Inject probes a site and a test arms it
// with Enable. While no site is armed Inject is one atomic load.
package fault

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the root of every error this package injects, at a
// failpoint or from a SimDisk, so tests can tell deliberate faults from
// real bugs anywhere in a wrapped chain.
var ErrInjected = errors.New("fault: injected failure")

// Outcome is what an armed site does when it triggers: sleep Delay,
// then return Err (wrapped so errors.Is sees ErrInjected), if set.
type Outcome struct {
	Err   error
	Delay time.Duration
}

// Policy bounds an armed site: it triggers on its first Times passes
// (every pass when Times is 0).
type Policy struct{ Times int }

// point is one armed site.
type point struct {
	outcome Outcome
	policy  Policy
	fired   int
}

var (
	armed  atomic.Int32 // armed sites: the fast path's one load
	mu     sync.Mutex
	points = map[string]*point{}
)

// Enable arms site, replacing any earlier arming and its count. The
// site must be in the Catalog, so a misspelled site cannot silently
// test nothing.
func Enable(site string, o Outcome, p Policy) error {
	if !catalog[site] {
		return fmt.Errorf("fault: unknown site %q", site)
	}
	mu.Lock()
	defer mu.Unlock()
	if points[site] == nil {
		armed.Add(1)
	}
	points[site] = &point{outcome: o, policy: p}
	return nil
}

// Reset disarms every site.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	armed.Add(-int32(len(points)))
	clear(points)
}

// Hits reports how many times the armed site has triggered.
func Hits(site string) int {
	mu.Lock()
	defer mu.Unlock()
	if pt := points[site]; pt != nil {
		return pt.fired
	}
	return 0
}

// Inject records one pass through site and, if it triggers, sleeps and
// returns the injected error.
func Inject(site string) error {
	if armed.Load() == 0 {
		return nil
	}
	return injectSlow(site)
}

//go:noinline
func injectSlow(site string) error {
	mu.Lock()
	pt := points[site]
	if pt == nil || pt.policy.Times > 0 && pt.fired >= pt.policy.Times {
		mu.Unlock()
		return nil
	}
	pt.fired++
	o := pt.outcome
	mu.Unlock()
	time.Sleep(o.Delay)
	if o.Err == nil || errors.Is(o.Err, ErrInjected) {
		return o.Err
	}
	return fmt.Errorf("%w at %s: %w", ErrInjected, site, o.Err)
}
