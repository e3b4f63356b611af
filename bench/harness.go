package main

// The measuring loop shared by every workload: repeated set-up, warm-up
// by count, one timed closed-loop window, and the checks around it.

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// checkLevel says how much of each answer an op verifies. Counts are
// checked on every op; full answer sets only on the ops just outside the
// timed window, so checking cost never sits inside a latency sample.
type checkLevel int

const (
	checkCount checkLevel = iota
	checkFull
)

// opResult counts the statements one op attempted and how many of them
// errored, were refused, or answered wrongly.
type opResult struct{ stmts, failed int }

func (a *opResult) add(b opResult) {
	a.stmts += b.stmts
	a.failed += b.failed
}

// instance is one set-up system under test. op replays the workload's
// script once for the given client; i counts that client's ops from 0.
// With a non-nil tracer the op also re-executes every statement layer
// by layer and records the spans.
type instance interface {
	op(client, i int, lvl checkLevel, tr *tracer) opResult
	// finish runs the workload's epilogue outside the window and adds
	// any metrics only it can take (durable: recovery). Most have none.
	finish(m map[string]float64) opResult
	// layers times the layers' public functions on this instance's own
	// data (traced pass only).
	layers(m map[string]float64, sum spanSummary)
	close()
}

// workload describes one entry of BENCHMARK.json's workloads.
type workload struct {
	name     string
	warmup   int // ops replayed before the window: indexes and lazy state get built
	setups   int // set-ups timed per run; setup_s is their median
	clients  int // closed-loop clients
	traceOps int // ops per client in the traced pass, fixed so program-made counts repeat
	setup    func(seed int64, scale float64) (instance, error)
}

// minWindowOps is the fewest samples that give a p90 with ten samples
// beyond it; a window that held fewer is reported as invalid.
const minWindowOps = 100

// runResult is one run of one workload.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Ops       int                `json:"ops"`
	Valid     bool               `json:"valid"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Ungated is recorded for the reader and never compared: the tail
	// latencies (op_p90_ms, and op_tail_ms at percentile tail_pct, the
	// highest with ten samples beyond it), the timing metrics as the
	// clock read them before the division by the speed reference
	// (raw_*), and the slowdown that was divided out.
	Ungated map[string]float64 `json:"ungated,omitempty"`
}

var failuresShown atomic.Int32

// reportFailure prints the first few failed statements so a wrong
// answer can be diagnosed from the run's own output.
func reportFailure(format string, args ...any) {
	if failuresShown.Add(1) <= 10 {
		fmt.Fprintf(os.Stderr, "bench: FAIL "+format+"\n", args...)
	}
}

// setUp builds an instance and replays the warm-up ops, returning how
// long both took in seconds, raw and at the reference speed (kernel
// samples taken just before and just after): that sum is what a caller
// waits before the system serves at its steady speed.
func setUp(w *workload, seed int64, scale float64, total *opResult) (inst instance, raw, norm float64, err error) {
	runtime.GC()
	clock := newSpeedClock()
	for i := 0; i < 10; i++ {
		clock.sample()
	}
	start := time.Now()
	inst, err = w.setup(seed, scale)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	for c := 0; c < w.clients; c++ {
		for i := 0; i < w.warmup; i++ {
			total.add(inst.op(c, i, checkCount, nil))
		}
	}
	raw = time.Since(start).Seconds()
	for i := 0; i < 10; i++ {
		clock.sample()
	}
	return inst, raw, raw / (median(clock.ns) / refNominalNS), nil
}

// runUntraced measures the end-to-end metrics of one workload.
func runUntraced(w *workload, seed int64, scale float64, window time.Duration) (*runResult, error) {
	var total opResult
	var inst instance
	var setupRaw, setupS []float64
	for s := 0; s < w.setups; s++ {
		if inst != nil {
			inst.close()
		}
		var raw, norm float64
		var err error
		if inst, raw, norm, err = setUp(w, seed, scale, &total); err != nil {
			return nil, err
		}
		setupRaw, setupS = append(setupRaw, raw), append(setupS, norm)
	}
	defer inst.close()

	next := make([]int, w.clients) // each client's next op index
	for c := range next {
		total.add(inst.op(c, w.warmup, checkFull, nil))
		next[c] = w.warmup + 1
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	win := runWindow(inst, w.clients, next, window)
	runtime.ReadMemStats(&after)
	total.add(win.res)

	for c := range next {
		total.add(inst.op(c, next[c], checkFull, nil))
	}
	m := map[string]float64{}
	total.add(inst.finish(m))

	runtime.GC()
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	runtime.KeepAlive(inst)

	ops := len(win.ms)
	sorted, rawSorted := sortedCopy(win.ms), sortedCopy(win.rawMS)
	m["setup_s"] = median(setupS)
	m["ops_per_s"] = win.opsPerS
	m["op_p50_ms"] = percentile(sorted, 50)
	m["allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / float64(ops)
	m["alloc_kb_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(ops)
	m["live_heap_mb"] = float64(live.HeapAlloc) / (1 << 20)
	tail := tailPercentile(ops)
	return &runResult{
		Workload: w.name, Seed: seed, Ops: ops, Valid: ops >= minWindowOps,
		Attempted: total.stmts, Failed: total.failed,
		Metrics: m,
		Ungated: map[string]float64{
			"op_p90_ms": percentile(sorted, 90), "tail_pct": tail, "op_tail_ms": percentile(sorted, tail),
			"raw_setup_s": median(setupRaw), "raw_ops_per_s": float64(ops) / win.elapsed.Seconds(),
			"raw_op_p50_ms": percentile(rawSorted, 50), "raw_op_p90_ms": percentile(rawSorted, 90),
			"slowdown": win.slowdown, "slowdown_p10": win.slowP10, "slowdown_p90": win.slowP90,
		},
	}, nil
}

// windowResult is what the timed closed loop measured.
type windowResult struct {
	ms, rawMS []float64 // op latencies at the reference speed, and as the clock read them
	opsPerS   float64   // ops per second of reference-speed time, summed over clients
	elapsed   time.Duration
	res       opResult
	// The machine's slowdown over the window's ops: median, 10th and
	// 90th percentile.
	slowdown, slowP10, slowP90 float64
}

// runWindow drives every client until the window closes. Each client
// sends its next op only when the previous one has returned, and takes a
// kernel sample between ops whenever the last one is refEvery old; the
// samples are outside every latency.
func runWindow(inst instance, clients int, next []int, window time.Duration) windowResult {
	type client struct {
		clock *speedClock
		ends  []time.Time
		raw   []float64
		res   opResult
	}
	cs := make([]client, clients)
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for c := range cs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &cs[c]
			cl.clock = newSpeedClock()
			cl.clock.sample()
			for t0 := time.Now(); t0.Before(deadline); t0 = time.Now() {
				cl.res.add(inst.op(c, next[c], checkCount, nil))
				t1 := time.Now()
				cl.ends = append(cl.ends, t1)
				cl.raw = append(cl.raw, float64(t1.Sub(t0))/1e6)
				next[c]++
				if cl.clock.due(t1) {
					cl.clock.sample()
				}
			}
		}(c)
	}
	wg.Wait()
	out := windowResult{elapsed: time.Since(start)}
	var slows []float64
	for c := range cs {
		cl := &cs[c]
		var busy float64
		for i, raw := range cl.raw {
			mid := cl.ends[i].Add(-time.Duration(raw * 1e6 / 2))
			slow := cl.clock.slowdown(mid)
			busy += raw / slow
			out.ms = append(out.ms, raw/slow)
			slows = append(slows, slow)
		}
		out.rawMS = append(out.rawMS, cl.raw...)
		out.opsPerS += float64(len(cl.raw)) / (busy / 1e3)
		out.res.add(cl.res)
	}
	sort.Float64s(slows)
	out.slowdown, out.slowP10, out.slowP90 = percentile(slows, 50), percentile(slows, 10), percentile(slows, 90)
	return out
}
