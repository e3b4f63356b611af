package main

// closure and reach_bound: transitive closure over a seeded DAG, asked
// for in full and from one bound node.

import (
	"fmt"
	"math"

	"kdb"
	"kdb/internal/eval"
	"kdb/internal/parser"
	"kdb/internal/storage"
	"kdb/internal/term"
)

// closureNodes and reachNodes are the graph sizes at -scale 1, chosen so
// a ten-second window holds well over minWindowOps ops on two vCPUs.
const (
	closureNodes = 100
	reachNodes   = 120
)

// graphInstance serves both workloads: script is the whole answer for
// closure, and one bound goal per op (cycling) for reach_bound.
type graphInstance struct {
	g      *dag
	kb     *libKB
	script []stmt
	// again builds the same workload at another scale (growth exponent).
	again func(scale float64) (instance, error)
	scale float64
}

func setupClosure(seed int64, scale float64) (instance, error) {
	g := genDAG(subSeed(seed, "closure"), scaled(closureNodes, scale, 8))
	kb, err := newLibKB(g.program(), kdb.DescribeOptions{})
	if err != nil {
		return nil, err
	}
	script := []stmt{{text: "retrieve path(X, Y).", want: g.pathAll()}}
	again := func(scale float64) (instance, error) { return setupClosure(seed, scale) }
	return &graphInstance{g: g, kb: kb, script: script, again: again, scale: scale}, nil
}

func setupReachBound(seed int64, scale float64) (instance, error) {
	r := subSeed(seed, "reach_bound")
	g := genDAG(r, scaled(reachNodes, scale, 16))
	kb, err := newLibKB(g.program(), kdb.DescribeOptions{})
	if err != nil {
		return nil, err
	}
	// Goals come from the first fifth of the DAG, so each reaches most
	// of the graph and the ops cost alike.
	var script []stmt
	for _, c := range r.Perm(max(g.n/5, 8))[:8] {
		script = append(script, stmt{text: fmt.Sprintf("retrieve path(%s, Y).", g.name(c)), want: g.pathFrom(c)})
	}
	again := func(scale float64) (instance, error) { return setupReachBound(seed, scale) }
	return &graphInstance{g: g, kb: kb, script: script, again: again, scale: scale}, nil
}

func (in *graphInstance) op(_, i int, lvl checkLevel, tr *tracer) opResult {
	var root int
	if tr != nil {
		root = tr.begin("op", 0, i+1)
		defer tr.end(root)
	}
	// closure replays its one-statement script; reach_bound's op is the
	// next goal of the cycle, so every op is one evaluation.
	return in.kb.exec(&in.script[i%len(in.script)], lvl, tr, root, i+1)
}

func (in *graphInstance) finish(map[string]float64) opResult { return opResult{} }
func (in *graphInstance) close()                             {}

// retrieveMS times the direct engine call for every script statement on
// the given engine constructor: the median over reps of the script mean.
func retrieveMS(newEngine func(eval.Input, ...eval.EngineOption) eval.Engine, st *storage.Store, rules []term.Rule, script []stmt, reps int) float64 {
	queries := make([]eval.Query, len(script))
	for i := range script {
		q, err := parser.ParseQuery(script[i].text)
		must(err)
		rq := q.(*parser.Retrieve)
		queries[i] = eval.Query{Subject: rq.Subject, Where: rq.Where}
	}
	ns := timed(reps, func() {
		for _, q := range queries {
			_, err := newEngine(eval.Input{Store: st, Rules: rules}).RetrieveContext(ctx, q)
			must(err)
		}
	})
	return ns / 1e6 / float64(len(script))
}

func (in *graphInstance) layers(m map[string]float64, sum spanSummary) {
	kb := in.kb
	st := kb.k.Store()
	loadLayers(m, in.g.program())
	evalLayers(m, kb, in.script, sum)

	m["eval.seminaive_ms"] = retrieveMS(eval.NewSemiNaive, st, kb.rules, in.script, 3)
	m["eval.topdown_ms"] = retrieveMS(eval.NewTopDown, st, kb.rules, in.script, 3)
	m["eval.magic_ms"] = retrieveMS(eval.NewMagic, st, kb.rules, in.script, 3)

	// Growth: the same generator and script at half, one and two times
	// the size; the slope of log time against log size.
	var xs, ys []float64
	for _, f := range []float64{0.5, 1, 2} {
		other, err := in.again(in.scale * f)
		must(err)
		o := other.(*graphInstance)
		xs = append(xs, math.Log(float64(o.g.n)))
		ys = append(ys, math.Log(retrieveMS(eval.NewSemiNaive, o.kb.k.Store(), o.kb.k.Rules(), o.script[:1], 3)))
	}
	m["eval.growth_exponent"] = slope(xs, ys)

	// What every derived tuple pays: inserting the workload's own answer
	// tuples into a fresh relation, probing the base relation on one
	// bound column, and matching the recursive rule's body atom.
	edge := st.Relation("edge")
	_, res, err := directRetrieve(st, kb.rules, term.NewAtom("path", term.Var("X"), term.Var("Y")), nil)
	must(err)
	storageLayers(m, edge, res.Tuples)
	termLayers(m, term.NewAtom("edge", term.Var("X"), term.Var("Z")), term.Var("Y"), edge)
}
