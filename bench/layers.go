package main

// Per-layer measurements of the traced pass: each function times one
// layer's public functions on the calling workload's own data and
// stores the result under the metric names of BENCHMARK.json.

import (
	"runtime"
	"time"

	"kdb"
	"kdb/internal/analysis"
	"kdb/internal/builtin"
	"kdb/internal/core"
	"kdb/internal/depgraph"
	"kdb/internal/parser"
	"kdb/internal/storage"
	"kdb/internal/term"
	"kdb/internal/transform"
)

// timed returns the median duration of reps calls, in nanoseconds.
func timed(reps int, fn func()) float64 {
	d := make([]float64, reps)
	for i := range d {
		start := time.Now()
		fn()
		d[i] = float64(time.Since(start))
	}
	return median(d)
}

// mallocs returns how many heap objects fn allocated. Only meaningful
// while no other goroutine of the harness is working.
func mallocs(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// must stops the run on an error in the harness's own plumbing (a direct
// layer call, a side store, a request it built itself): a defect in the
// benchmark, not an answer of kdb's to count as failed.
func must(err error) {
	if err != nil {
		panic("bench: " + err.Error())
	}
}

// loadLayers times what loading the generated program costs, stage by
// stage: parse, static analysis, and the whole KB.LoadProgram.
func loadLayers(m map[string]float64, program string) {
	var prog *parser.Program
	ns := timed(3, func() {
		var err error
		prog, err = parser.ParseProgram(program)
		must(err)
	})
	m["parser.load_mb_per_s"] = float64(len(program)) / (1 << 20) / (ns / 1e9)
	m["analysis.run_ms"] = timed(3, func() { analysis.Run(analysis.FromProgram(prog)) }) / 1e6
	m["kb.load_ms"] = timed(3, func() { must(kdb.New().LoadProgram(prog)) }) / 1e6
}

// ruleLayers times the per-rule-set constructions a query or a describe
// pays again whenever they are not cached.
func ruleLayers(m map[string]float64, rules []term.Rule) {
	m["depgraph.new_us"] = timed(21, func() { depgraph.New(rules) }) / 1e3
	m["transform.apply_us"] = timed(21, func() {
		_, err := transform.Apply(rules)
		must(err)
	}) / 1e3
	m["core.new_us"] = timed(21, func() {
		_, err := core.New(rules, nil, core.Options{})
		must(err)
	}) / 1e3
}

// evalLayers turns the traced pass's eval spans and the engine's own
// counters into the unit prices: time, allocations and work per answer.
func evalLayers(m map[string]float64, kb *libKB, script []stmt, sum spanSummary) {
	c := kb.counts
	c.mu.Lock()
	defer c.mu.Unlock()
	answers := float64(c.answers)
	m["eval.fixed_us"] = sum.medianUS("eval.fixed")
	m["eval.materialise_us"] = sum.medianUS("render.retrieve")
	m["eval.ns_per_answer"] = ratio(sum.total("eval"), answers)
	m["eval.derived_per_answer"] = ratio(float64(c.facts), answers)
	m["eval.lookups_per_answer"] = ratio(float64(c.lookups), answers)
	m["eval.iterations"] = ratio(float64(c.iterations), float64(c.retrieves))
	m["storage.probes_per_answer"] = ratio(float64(c.probes), answers)
	m["storage.candidates_per_probe"] = ratio(float64(c.candidates), float64(c.probes))
	m["storage.fullscan_ratio"] = ratio(float64(c.fullScans), float64(c.probes))
	m["storage.index_builds"] = float64(c.idxBuilds)

	// Allocations per answer: the script's retrieves once more, directly
	// on the engine, with nothing else running.
	var got int
	allocs := mallocs(func() {
		for i := range script {
			q, err := parser.ParseQuery(script[i].text)
			must(err)
			if rq, ok := q.(*parser.Retrieve); ok {
				_, res, err := directRetrieve(kb.k.Store(), kb.rules, rq.Subject, rq.Where)
				must(err)
				got += len(res.Tuples)
			}
		}
	})
	m["eval.allocs_per_answer"] = ratio(allocs, float64(got))
}

// storageLayers prices the relation operations under the join loop:
// insert of the workload's own tuples into a fresh relation, an indexed
// probe of its base relation, and delete with the re-index that the
// next probe then pays.
func storageLayers(m map[string]float64, base *storage.Relation, tuples []storage.Tuple) {
	if len(tuples) > 20000 {
		tuples = tuples[:20000]
	}
	if len(tuples) > 0 {
		fill := func() {
			rel, err := storage.NewRelation(len(tuples[0]))
			must(err)
			for _, t := range tuples {
				_, err := rel.Insert(t)
				must(err)
			}
		}
		m["storage.insert_ns"] = timed(3, fill) / float64(len(tuples))
		m["storage.insert_allocs"] = mallocs(fill) / float64(len(tuples))
	}

	// Probe keys: the first column of up to 1000 stored tuples.
	var rows []storage.Tuple
	base.Scan(func(t storage.Tuple) bool {
		rows = append(rows, t)
		return len(rows) < 1000
	})
	if len(rows) == 0 {
		return
	}
	pattern := make([]term.Term, base.Arity())
	for i := range pattern {
		pattern[i] = term.Var("V" + string(rune('a'+i)))
	}
	probeAll := func(rel *storage.Relation) {
		for _, t := range rows {
			pattern[0] = t[0]
			must(rel.SelectCounted(pattern, nil, func(storage.Tuple) bool { return true }))
		}
	}
	probeAll(base) // index warm
	m["storage.probe_ns"] = timed(5, func() { probeAll(base) }) / float64(len(rows))

	// Delete on a private copy, so the workload's relation is untouched.
	scratch, err := storage.NewRelation(base.Arity())
	must(err)
	base.Scan(func(t storage.Tuple) bool {
		_, err := scratch.Insert(t)
		must(err)
		return true
	})
	var del, reidx []float64
	for _, t := range rows[:min(len(rows), 25)] {
		pattern[0] = t[0]
		must(scratch.SelectCounted(pattern, nil, func(storage.Tuple) bool { return true }))
		start := time.Now()
		_, err := scratch.Delete(t)
		must(err)
		mid := time.Now()
		must(scratch.SelectCounted(pattern, nil, func(storage.Tuple) bool { return true }))
		del = append(del, float64(mid.Sub(start)))
		reidx = append(reidx, float64(time.Since(mid)))
	}
	m["storage.delete_us"] = median(del) / 1e3
	m["storage.reindex_us"] = median(reidx) / 1e3
}

// termLayers prices one-way matching as the join loop uses it: the body
// atom of the recursive rule against every tuple of its relation, under
// a substitution that already binds another variable.
func termLayers(m map[string]float64, pattern term.Atom, bound term.Term, rel *storage.Relation) {
	var grounds []term.Atom
	rel.Scan(func(t storage.Tuple) bool {
		grounds = append(grounds, term.NewAtom(pattern.Pred, t...))
		return len(grounds) < 20000
	})
	if len(grounds) == 0 {
		return
	}
	base := term.NewSubst(1)
	base.Bind(bound, term.Sym("bound"))
	run := func() {
		for _, g := range grounds {
			term.Match(pattern, g, base)
		}
	}
	m["term.match_ns"] = timed(5, run) / float64(len(grounds))
	m["term.match_allocs"] = mallocs(run) / float64(len(grounds))
}

// describeLayers prices the pieces under a describe: unifying the
// script's subjects with rule heads, and the comparison solver on the
// comparison conjunctions the script and the rules contain.
func describeLayers(m map[string]float64, subjects []term.Atom, rules []term.Rule, comparisons []term.Formula) {
	pairs := 0
	unify := func() {
		pairs = 0
		for _, s := range subjects {
			for _, r := range rules {
				if r.Head.Pred == s.Pred {
					term.Unify(s, r.Head, nil)
					pairs++
				}
			}
		}
	}
	ns := timed(21, unify)
	m["term.unify_ns"] = ratio(ns, float64(pairs))

	if len(comparisons) > 0 {
		implies := func() {
			for _, a := range comparisons {
				for _, b := range comparisons {
					_, err := builtin.Implies(a, b)
					must(err)
				}
			}
		}
		m["builtin.implies_us"] = timed(21, implies) / 1e3 / float64(len(comparisons)*len(comparisons))
	}
}

// obsOnRatio is what attaching a tracer and a metrics registry costs:
// the script's median replay time on a KB built with both, over the
// same on a plain KB, alternating so drift hits both alike. build
// returns a function replaying the script once on a KB made with opts.
func obsOnRatio(build func(opts ...kdb.Option) func()) float64 {
	plain := build()
	observed := build(kdb.WithTracer(kdb.NewTracer()), kdb.WithMetrics(kdb.NewMetricsRegistry()))
	plain()
	observed()
	var off, on []float64
	for i := 0; i < 7; i++ {
		off = append(off, timed(1, plain))
		on = append(on, timed(1, observed))
	}
	return ratio(median(on), median(off))
}

// replayOn builds a KB from the program with opts and returns a function
// that replays the script on it once, unchecked.
func replayOn(program string, script []stmt) func(opts ...kdb.Option) func() {
	return func(opts ...kdb.Option) func() {
		kb, err := newLibKB(program, kdb.DescribeOptions{}, opts...)
		must(err)
		return func() {
			for i := range script {
				_, err := kb.k.ExecStringContext(ctx, script[i].text)
				must(err)
			}
		}
	}
}
