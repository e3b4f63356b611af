package main

// Running one statement against an in-process KB: the call a user of
// the library makes, its check against the reference, and — in the
// traced pass — the same statement taken apart into direct calls on
// each layer's public functions.

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"kdb"
	"kdb/internal/catalog"
	"kdb/internal/core"
	"kdb/internal/eval"
	"kdb/internal/parser"
	"kdb/internal/prov"
	"kdb/internal/storage"
	"kdb/internal/term"
)

var ctx = context.Background()

// stmt is one statement of a script with its reference answer.
type stmt struct {
	text string
	want expect
	// family groups describe statements for the per-family layer times.
	family string
	// facts, when set, is the stored-fact set an explain tree's leaves
	// must come from.
	facts map[string]bool
}

// evalCounts sums the program's own evaluation counters over the direct
// engine calls of a traced pass.
type evalCounts struct {
	mu                                                sync.Mutex // serve's two clients share one
	answers, retrieves                                int
	facts, iterations                                 int
	lookups, probes, candidates, fullScans, idxBuilds int64
}

func (c *evalCounts) add(st *eval.EvalStats, answers int) {
	if st == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.retrieves++
	c.answers += answers
	c.facts += st.Facts
	c.lookups += st.Lookups
	c.probes += st.Probes
	c.candidates += st.Candidates
	c.fullScans += st.FullScans
	c.idxBuilds += st.IndexBuilds
	for _, comp := range st.Components {
		c.iterations += comp.Iterations
	}
}

// libKB is a loaded KB plus what the traced pass needs to call the
// layers under it directly.
type libKB struct {
	k      *kdb.KB
	dopts  kdb.DescribeOptions
	counts *evalCounts

	// Built on first traced use.
	rules []term.Rule
	desc  *core.Describer
	empty *storage.Store
}

// newLibKB loads the program into a fresh in-memory KB. dopts are the
// describe options the family under test needs (zero for the defaults).
func newLibKB(program string, dopts kdb.DescribeOptions, opts ...kdb.Option) (*libKB, error) {
	k := kdb.New(opts...)
	if err := k.LoadString(program); err != nil {
		return nil, err
	}
	k.SetDescribeOptions(dopts)
	return &libKB{k: k, dopts: dopts, counts: &evalCounts{}}, nil
}

// answerCount is the number of answers a result carries, whatever the
// statement form.
func answerCount(res *kdb.ExecResult) int {
	switch {
	case res.Retrieve != nil:
		return len(res.Retrieve.Tuples)
	case res.Describe != nil:
		return len(res.Describe.Formulas)
	case res.Explanation != nil:
		return len(res.Explanation.Trees)
	case res.Wildcard != nil:
		n := 0
		for _, e := range res.Wildcard {
			n += len(e.Answers.Formulas)
		}
		return n
	default:
		return 1 // a verdict: necessity, possibility, comparison
	}
}

// leavesStored reports whether every stored-fact leaf of the derivation
// trees is a fact the generator wrote.
func leavesStored(nodes []*kdb.ExplainNode, facts map[string]bool) bool {
	for _, n := range nodes {
		if n.Kind == kdb.ExplainEDB && !facts[n.Fact.String()] {
			return false
		}
		if !leavesStored(n.Children, facts) {
			return false
		}
	}
	return true
}

// exec runs the statement the way a caller of the library does — parse,
// execute, render the answer — and checks the result.
func (kb *libKB) exec(s *stmt, lvl checkLevel, tr *tracer, parent, op int) opResult {
	var id int
	if tr != nil {
		id = tr.begin("stmt", parent, op)
	}
	res, err := kb.k.ExecStringContext(ctx, s.text)
	var text string
	if err == nil {
		text = res.String()
	}
	if tr != nil {
		tr.end(id)
	}
	if err == nil && res.Explanation != nil && lvl == checkFull {
		// The reference for an explain is the set of explained facts;
		// the tree below each is checked leaf by leaf against s.facts.
		var roots []string
		for _, t := range res.Explanation.Trees {
			roots = append(roots, t.Fact.String())
		}
		text = strings.Join(roots, "\n")
	}
	switch {
	case err != nil:
		reportFailure("%s: %v", s.text, err)
		return opResult{1, 1}
	case answerCount(res) != s.want.count:
		reportFailure("%s: %d answers, reference has %d", s.text, answerCount(res), s.want.count)
		return opResult{1, 1}
	case lvl == checkFull && canon(text) != s.want.full:
		reportFailure("%s: answer differs from the reference\n got: %.400s\nwant: %.400s", s.text, canon(text), s.want.full)
		return opResult{1, 1}
	case lvl == checkFull && s.facts != nil && !leavesStored(res.Explanation.Trees, s.facts):
		reportFailure("%s: derivation tree rests on a fact that was never stored", s.text)
		return opResult{1, 1}
	}
	if tr != nil {
		kb.decompose(s, tr, id, op)
	}
	return opResult{1, 0}
}

// prepareDirect builds what the direct layer calls need: the rule set,
// a describer assembled the way the KB assembles its own, and a store
// holding the same relations with no tuples (for eval.fixed).
func (kb *libKB) prepareDirect() error {
	opts := kb.dopts
	kb.rules = kb.k.Rules()
	keys := map[string][][]int{}
	for _, class := range []catalog.Class{catalog.ClassEDB, catalog.ClassIDB} {
		for _, p := range kb.k.Catalog().Preds(class) {
			if len(p.Keys) > 0 {
				keys[p.Name] = p.Keys
			}
		}
	}
	opts.Constraints = kb.k.Constraints()
	d, err := core.New(kb.rules, keys, opts)
	if err != nil {
		return err
	}
	kb.desc = d
	kb.empty = storage.NewMemory()
	for _, pred := range kb.k.Store().Preds() {
		t := make(storage.Tuple, kb.k.Store().Relation(pred).Arity())
		for i := range t {
			t[i] = term.Sym("x")
		}
		if _, err := kb.empty.Insert(pred, t); err != nil {
			return err
		}
		if _, err := kb.empty.Delete(pred, t); err != nil {
			return err
		}
	}
	return nil
}

func stmtKind(q parser.Query) string {
	switch q.(type) {
	case *parser.Retrieve:
		return "retrieve"
	case *parser.Explain:
		return "explain"
	default:
		return "describe"
	}
}

// directRetrieve is the engine call under KB.Retrieve, made from outside.
func directRetrieve(st *storage.Store, rules []term.Rule, subject term.Atom, where term.Formula, opts ...eval.EngineOption) (eval.Engine, *eval.Result, error) {
	eng := eval.NewSemiNaive(eval.Input{Store: st, Rules: rules}, opts...)
	res, err := eng.RetrieveContext(ctx, eval.Query{Subject: subject, Where: where})
	return eng, res, err
}

// directDescribe is the describer call under each describe form of
// KB.ExecContext, made from outside.
func directDescribe(d *core.Describer, q parser.Query) (int, error) {
	var none kdb.QueryLimits
	switch s := q.(type) {
	case *parser.Compare:
		_, err := d.Compare(s.Left.Subject, s.Left.Where, s.Right.Subject, s.Right.Where)
		return 1, err
	case *parser.Describe:
		switch {
		case s.Wildcard:
			es, err := d.DescribeWildcard(s.Where)
			n := 0
			for _, e := range es {
				n += len(e.Answers.Formulas)
			}
			return n, err
		case s.Subjectless:
			_, err := d.Possible(s.Where)
			return 1, err
		case len(s.Not) > 0:
			_, err := d.DescribeNot(s.Subject, s.Not, s.Where)
			return 1, err
		case s.Necessary:
			a, err := d.DescribeNecessaryContext(ctx, s.Subject, s.Where, none)
			if err != nil {
				return 0, err
			}
			return len(a.Formulas), nil
		default:
			a, err := d.DescribeContext(ctx, s.Subject, s.Where, none)
			if err != nil {
				return 0, err
			}
			return len(a.Formulas), nil
		}
	}
	return 0, fmt.Errorf("not a describe statement: %v", q)
}

// decompose re-executes the statement layer by layer under the span of
// the user's call: the parse, then everything decomposeQuery records.
func (kb *libKB) decompose(s *stmt, tr *tracer, parent, op int) {
	id := tr.begin("parser", parent, op)
	q, err := parser.ParseQuery(s.text)
	tr.end(id)
	must(err)
	kb.decomposeQuery(q, s.family, tr, parent, op)
}

// decomposeQuery records the KB call for a parsed statement, the direct
// engine or describer call beneath it (for a retrieve, once more over
// empty relations: what is left is the cost that does not depend on the
// data), and the rendering of the answer. A layer that fails here is a
// harness defect, not a kdb answer, so it panics rather than counting a
// failed statement.
func (kb *libKB) decomposeQuery(q parser.Query, family string, tr *tracer, parent, op int) {
	if kb.desc == nil {
		must(kb.prepareDirect())
	}
	kid := tr.begin("kb."+stmtKind(q), parent, op)
	res, err := kb.k.ExecContext(ctx, q)
	tr.end(kid)
	must(err)

	switch q := q.(type) {
	case *parser.Retrieve:
		id := tr.begin("eval", kid, op)
		eng, r, err := directRetrieve(kb.k.Store(), kb.rules, q.Subject, q.Where)
		tr.end(id)
		must(err)
		kb.counts.add(eng.(eval.StatsReporter).LastStats(), len(r.Tuples))
		fid := tr.begin("eval.fixed", id, op)
		_, _, err = directRetrieve(kb.empty, kb.rules, q.Subject, q.Where)
		tr.end(fid)
		must(err)
	case *parser.Explain:
		id := tr.begin("eval.explain", kid, op)
		rec := prov.NewRecorder()
		_, r, err := directRetrieve(kb.k.Store(), kb.rules, q.Subject, q.Where, eval.WithProvenance(rec))
		must(err)
		rec.Explain(q.Subject, r.Atoms(q.Subject), kb.k.Store().Contains, 10000)
		tr.end(id)
	default:
		id := tr.begin("core."+family, kid, op)
		_, err := directDescribe(kb.desc, q)
		tr.end(id)
		must(err)
	}

	id := tr.begin("render."+stmtKind(q), parent, op)
	_ = res.String()
	tr.end(id)
}
