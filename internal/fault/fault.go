// Package fault is a deterministic, seedable failpoint registry: the
// injection side of the repo's chaos testing. Production code plants
// named sites on its fragile paths (WAL append, snapshot rename,
// tenant open, …) with fault.Inject or fault.Eval; tests arm those
// sites with an Outcome (error, panic, latency, torn write) under a
// trigger Policy (always, every Nth pass, probability with a fixed
// seed, once after K passes), drive a workload, and assert the
// recovery invariants.
//
// The registry is process-global, like the sites it names. When no
// site is armed — every production run — Inject and Eval cost one
// atomic load and zero allocations; a benchmark-enforced test pins
// that down, so leaving the sites compiled into release builds is
// free.
//
// Determinism: a Policy's probability draws come from a rand.Rand
// seeded per site at Enable time, and every other trigger mode is a
// plain pass counter, so the same seed and the same single-threaded
// workload fire the same faults. (Concurrent workloads interleave
// passes nondeterministically; the per-site state itself stays
// race-free.)
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the root of every error this package injects:
// errors.Is(err, fault.ErrInjected) identifies an injected failure
// anywhere in a wrapped chain, so tests can tell deliberate faults
// from real bugs.
var ErrInjected = errors.New("fault: injected failure")

// Outcome is what happens when an armed site triggers. Delay applies
// first, then Panic, then Err; a triggered Outcome with none of them
// set (and no TornBytes) is pure latency injection — the site sleeps
// and proceeds normally.
type Outcome struct {
	// Err, when non-nil, is returned by the site. Use ErrInjected (or
	// an error wrapping it) so invariant checks can recognize it.
	Err error
	// Panic makes the site panic, exercising the containment layers
	// (the query governor's PanicError, deferred unlocks).
	Panic bool
	// Delay sleeps at the site before any other effect.
	Delay time.Duration
	// TornBytes > 0 asks a write site to persist only that many bytes
	// of the record it was about to write, then fail as if the process
	// had crashed mid-write. Only sites that document torn-write
	// support honor it (the WAL append path); elsewhere it behaves
	// like a plain error.
	TornBytes int
}

// Fire applies the outcome at site: sleeps Delay, panics if Panic,
// and returns Err (wrapped so errors.Is sees ErrInjected even when
// the caller armed a bare Err that does not wrap it).
func (o *Outcome) Fire(site string) error {
	if o.Delay > 0 {
		time.Sleep(o.Delay)
	}
	if o.Panic {
		panic(fmt.Sprintf("fault: injected panic at %s", site))
	}
	if o.Err == nil {
		return nil
	}
	if errors.Is(o.Err, ErrInjected) {
		return o.Err
	}
	return fmt.Errorf("%w at %s: %w", ErrInjected, site, o.Err)
}

// Policy decides on which passes through a site the outcome fires.
// The zero Policy triggers on every pass. Fields compose: SkipFirst
// and Times apply to every mode, and EveryNth/Prob select among the
// remaining passes.
type Policy struct {
	// SkipFirst suppresses the first K passes through the site.
	SkipFirst int
	// Times bounds how many triggers fire in total (0 = unlimited).
	// SkipFirst: K, Times: 1 is "once, after K passes".
	Times int
	// EveryNth triggers on every Nth eligible pass (0 and 1 mean
	// every pass).
	EveryNth int
	// Prob triggers with this probability per eligible pass, drawn
	// from a rand.Rand seeded with Seed (0 disables the mode).
	Prob float64
	// Seed seeds the site's probability stream; two Enable calls with
	// the same Seed draw identical streams.
	Seed int64
}

// point is one armed site.
type point struct {
	mu      sync.Mutex
	outcome Outcome
	policy  Policy
	rng     *rand.Rand
	passes  int
	fired   int
}

// trigger decides whether this pass fires, advancing the pass state.
func (p *point) trigger() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	pass := p.passes
	p.passes++
	if pass < p.policy.SkipFirst {
		return false
	}
	if p.policy.Times > 0 && p.fired >= p.policy.Times {
		return false
	}
	if n := p.policy.EveryNth; n > 1 && (pass-p.policy.SkipFirst)%n != 0 {
		return false
	}
	if p.policy.Prob > 0 && p.rng.Float64() >= p.policy.Prob {
		return false
	}
	p.fired++
	return true
}

var (
	// armed counts enabled sites; it gates the fast path, so a
	// disabled registry costs exactly one atomic load per site pass.
	armed  atomic.Int32
	mu     sync.Mutex
	points = map[string]*point{}
)

// Enable arms site with an outcome and a policy, replacing any
// earlier arming (and its pass counters). The site must be in the
// Catalog — arming a misspelled site would otherwise silently test
// nothing.
func Enable(site string, o Outcome, p Policy) error {
	if _, ok := catalog[site]; !ok {
		return fmt.Errorf("fault: unknown site %q", site)
	}
	pt := &point{outcome: o, policy: p, rng: rand.New(rand.NewSource(p.Seed))}
	mu.Lock()
	if _, ok := points[site]; !ok {
		armed.Add(1)
	}
	points[site] = pt
	mu.Unlock()
	return nil
}

// Disable disarms site; passes through it return to the zero-cost
// path (once no sites remain armed).
func Disable(site string) {
	mu.Lock()
	if _, ok := points[site]; ok {
		delete(points, site)
		armed.Add(-1)
	}
	mu.Unlock()
}

// Reset disarms every site.
func Reset() {
	mu.Lock()
	for site := range points {
		delete(points, site)
		armed.Add(-1)
	}
	mu.Unlock()
}

// Active returns the armed site names, sorted.
func Active() []string {
	mu.Lock()
	out := make([]string, 0, len(points))
	for site := range points {
		out = append(out, site)
	}
	mu.Unlock()
	sort.Strings(out)
	return out
}

// Hits reports how many times the armed site has triggered (0 for a
// disarmed site).
func Hits(site string) int {
	mu.Lock()
	pt := points[site]
	mu.Unlock()
	if pt == nil {
		return 0
	}
	pt.mu.Lock()
	defer pt.mu.Unlock()
	return pt.fired
}

// Eval records one pass through site and returns the triggered
// outcome, or nil. Sites that need outcome details beyond an error —
// torn-write byte counts — call Eval and interpret the Outcome
// themselves; everything else uses Inject. The returned Outcome is
// shared and must not be mutated. Eval is on the append/flush hot
// path of every durable write: while no site is armed it must stay a
// single atomic load, with zero allocation.
func Eval(site string) *Outcome {
	if armed.Load() == 0 {
		return nil
	}
	return evalSlow(site)
}

//go:noinline
func evalSlow(site string) *Outcome {
	mu.Lock()
	pt := points[site]
	mu.Unlock()
	if pt == nil || !pt.trigger() {
		return nil
	}
	return &pt.outcome
}

// Inject records one pass through site and fires the triggered
// outcome: sleeps, panics, or returns the injected error. It returns
// nil when the site is disarmed, the policy does not trigger, or the
// outcome is latency-only. Like Eval, the disarmed fast path is one
// atomic load and allocation-free.
func Inject(site string) error {
	if armed.Load() == 0 {
		return nil
	}
	o := evalSlow(site)
	if o == nil {
		return nil
	}
	return o.Fire(site)
}
