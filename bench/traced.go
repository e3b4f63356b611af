package main

// The traced pass: the same ops by fixed count, each statement taken
// apart under spans, then the layer timings on the workload's own data.

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// opID keeps the two serve clients' op ids apart.
func opID(client, i int) int { return client*1_000_000 + i + 1 }

// replay runs count pairs of ops per client from index first: one
// untraced, one traced, alternating so that drift in the machine's speed
// falls on both alike. It returns the untraced ops' latencies in
// milliseconds.
func replay(inst instance, w *workload, tr *tracer, first, count int, total *opResult) []float64 {
	lat := make([][]float64, w.clients)
	res := make([]opResult, w.clients)
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := first; i < first+2*count; i += 2 {
				start := time.Now()
				res[c].add(inst.op(c, i, checkCount, nil))
				lat[c] = append(lat[c], float64(time.Since(start))/1e6)
				res[c].add(inst.op(c, i+1, checkCount, tr))
			}
		}(c)
	}
	wg.Wait()
	var all []float64
	for c := range lat {
		all = append(all, lat[c]...)
		total.add(res[c])
	}
	return all
}

// perOpMS sums the spans of one name within each op, in milliseconds.
// For "stmt" that is the time of the calls a user makes, leaving out the
// re-executions the tracer added.
func perOpMS(spans []span, name string) []float64 {
	perOp := map[int]float64{}
	for _, s := range spans {
		if s.Name == name {
			perOp[s.Op] += s.dur() / 1e6
		}
	}
	out := make([]float64, 0, len(perOp))
	for _, v := range perOp {
		out = append(out, v)
	}
	return out
}

// runTraced produces the per-layer metrics of one workload and writes
// its span file under outDir.
func runTraced(w *workload, seed int64, scale float64, outDir string) (*runResult, error) {
	var total opResult
	inst, _, _, err := setUp(w, seed, scale, &total)
	if err != nil {
		return nil, err
	}
	defer inst.close()

	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = 0
	}

	// The untraced half of the alternating replay is the base of the
	// overhead ratio.
	tr := newTracer()
	base := replay(inst, w, tr, w.warmup, w.traceOps, &total)
	if err := tr.write(filepath.Join(outDir, w.name+".trace.jsonl")); err != nil {
		return nil, fmt.Errorf("%s: span file: %w", w.name, err)
	}
	sum := summarize(tr.spans)

	// The untraced op also pays the harness's own checks; the traced
	// user-call spans do not, so the ratio can dip just under 1.
	m["trace.overhead_ratio"] = ratio(median(perOpMS(tr.spans, "stmt")), median(base))

	all := sum.total("stmt")
	var kbSelf, core, render float64
	var kbSelfUS []float64
	for name, selfs := range sum.selfDurs {
		switch {
		case strings.HasPrefix(name, "kb."):
			kbSelf += sum.self(name)
			kbSelfUS = append(kbSelfUS, selfs...)
		case strings.HasPrefix(name, "core."):
			core += sum.total(name)
		case strings.HasPrefix(name, "render."):
			render += sum.total(name)
		}
	}
	m["self.parser_ratio"] = ratio(sum.total("parser"), all)
	m["self.kb_ratio"] = ratio(kbSelf, all)
	m["self.eval_ratio"] = ratio(sum.total("eval"), all)
	m["self.explain_ratio"] = ratio(sum.total("eval.explain"), all)
	m["self.eval_fixed_ratio"] = ratio(sum.total("eval.fixed"), all)
	m["self.core_ratio"] = ratio(core, all)
	m["self.render_ratio"] = ratio(render, all)
	m["self.storage_ratio"] = ratio(sum.total("storage.write"), all)
	m["self.server_ratio"] = ratio(sum.self("server.handler"), all)
	m["self.other_ratio"] = ratio(sum.self("stmt"), all)

	m["parser.parse_us"] = sum.medianUS("parser")
	for _, kind := range []string{"retrieve", "describe", "explain", "assert", "retract"} {
		m["kb."+kind+"_us"] = sum.medianUS("kb." + kind)
	}
	m["kb.overhead_us"] = median(kbSelfUS) / 1e3
	// Per op, not per statement: a script mixes point lookups with joins,
	// and it is the op's total that op_p50_ms follows.
	m["eval.retrieve_ms"] = median(perOpMS(tr.spans, "eval"))

	inst.layers(m, sum)
	total.add(inst.finish(m))

	return &runResult{
		Workload: w.name, Seed: seed, Traced: true, Ops: w.traceOps * w.clients, Valid: true,
		Attempted: total.stmts, Failed: total.failed, Metrics: m,
	}, nil
}
