package eval

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"kdb/internal/governor"
	"kdb/internal/storage"
	"kdb/internal/term"
)

// The magic-sets engine: a goal-directed bottom-up evaluator. The query
// is rewritten with adorned predicates and magic filters so the
// semi-naive fixpoint only derives facts relevant to the query's bound
// arguments — bottom-up evaluation with top-down relevance, the standard
// optimization for bound goals over recursive programs.
//
// The rewrite is the textbook generalized magic sets for definite Datalog
// with comparisons:
//
//   - every IDB predicate reached from the query gets adorned variants
//     p#bf… (one per binding pattern);
//   - each adorned rule is guarded by a magic predicate m$p#… holding the
//     bound-argument tuples the query actually asks about;
//   - supplementary magic rules seed callee magic sets from the caller's
//     partial joins, following a left-to-right sideways information
//     passing order (comparisons are placed as soon as their variables
//     are bound).
//
// The rewritten program is evaluated by the semi-naive engine; magic seed
// facts ride along as bodiless ground rules so the user's store is never
// touched.

// magic is the Engine implementation.
type magic struct {
	in     Input
	limits governor.Limits
	stats  atomic.Pointer[EvalStats]
}

// NewMagic returns the magic-sets engine. It honors WithLimits only,
// forwarded to the semi-naive engine that evaluates the rewritten
// program; provenance and profiles are the semi-naive engine's alone.
func NewMagic(in Input, opts ...EngineOption) Engine {
	return &magic{in: in, limits: buildConfig(opts).limits}
}

// Name identifies the engine.
func (e *magic) Name() string { return "magic" }

// LastStats returns the statistics of the most recent RetrieveContext
// (those of the inner semi-naive run over the rewritten program).
func (e *magic) LastStats() *EvalStats { return e.stats.Load() }

// RetrieveContext rewrites the query and evaluates it bottom-up under
// the governor: the context and limits are forwarded to the inner
// semi-naive engine, so MaxFacts counts the facts of the rewritten
// program (magic seeds included).
func (e *magic) RetrieveContext(ctx context.Context, q Query) (res *Result, err error) {
	defer governor.Recover(&err)
	p, err := buildPlan(e.in, q, false)
	if err != nil {
		return nil, err
	}
	rewritten, queryPred, err := magicRewrite(p, e.in.Store)
	if err != nil {
		return nil, err
	}
	// The provider is forwarded unchanged: the adorned rewrite leaves
	// virtual atoms as-is (they have no rules, so they adorn like stored
	// predicates), and the inner plan re-snapshots them through the same
	// view, so magic answers match the other engines.
	inner := Input{Store: e.in.Store, Rules: rewritten, Virtual: e.in.Virtual}
	engine := &bottomUp{in: inner, limits: e.limits, full: true}
	res, err = engine.RetrieveContext(ctx, Query{
		Subject: term.NewAtom(queryPred, p.vars()...),
	})
	// The inner run's record is the magic run's (the StopError of a
	// governed stop carries the same pointer).
	if st := engine.LastStats(); st != nil {
		st.Engine = e.Name()
		e.stats.Store(st)
	}
	if err != nil {
		return nil, err
	}
	res.Vars = p.vars()
	return res, nil
}

// adornment is a binding pattern: 'b' for bound, 'f' for free, one byte
// per argument position.
type adornment string

func adornedName(pred string, a adornment) string {
	if len(a) == 0 {
		return pred + "#"
	}
	return pred + "#" + string(a)
}

func magicName(pred string, a adornment) string {
	return "m$" + adornedName(pred, a)
}

// magicRewrite produces the adorned + magic program for the plan's query
// rules and the name of the adorned query predicate. A rule-defined
// predicate that also has stored facts gets, per adornment, one more
// guarded rule that reads them from st.
func magicRewrite(p *plan, st *storage.Store) ([]term.Rule, string, error) {
	type job struct {
		pred string
		a    adornment
	}
	var out []term.Rule
	seen := map[string]bool{}
	var queue []job

	// The query rules' head has no bound arguments (their constants, if
	// any, live in the bodies); its magic seed is the empty tuple.
	queryAd := adornment(strings.Repeat("f", len(p.vars())))
	queue = append(queue, job{queryPredName, queryAd})
	seen[adornedName(queryPredName, queryAd)] = true
	out = append(out, term.Rule{Head: term.NewAtom(magicName(queryPredName, queryAd))})

	enqueue := func(pred string, a adornment) {
		key := adornedName(pred, a)
		if !seen[key] {
			seen[key] = true
			queue = append(queue, job{pred, a})
		}
	}

	for len(queue) > 0 {
		j := queue[0]
		queue = queue[1:]
		if st.Relation(j.pred) != nil {
			out = append(out, storedRule(j.pred, j.a))
		}
		prs := p.rules(j.pred)
		for i := range prs {
			rules, err := adornRule(prs[i].rule, j.a, p.defines, enqueue)
			if err != nil {
				return nil, "", err
			}
			out = append(out, rules...)
		}
	}
	return out, adornedName(queryPredName, queryAd), nil
}

// storedRule is the adorned predicate's view of the stored facts of pred:
// p#bf(V0, V1) :- m$p#bf(V0), p(V0, V1).
func storedRule(pred string, a adornment) term.Rule {
	args := make([]term.Term, len(a))
	var bound []term.Term
	for i, c := range a {
		args[i] = term.Var("V" + strconv.Itoa(i))
		if c == 'b' {
			bound = append(bound, args[i])
		}
	}
	return term.Rule{
		Head: term.Atom{Pred: adornedName(pred, a), Args: args},
		Body: term.Formula{term.NewAtom(magicName(pred, a), bound...), {Pred: pred, Args: args}},
	}
}

// adornRule rewrites one rule for the head adornment: the guarded adorned
// rule plus one supplementary magic rule per IDB body atom, the body
// atoms whose predicate idb reports.
func adornRule(r term.Rule, headAd adornment, idb func(string) bool, enqueue func(string, adornment)) ([]term.Rule, error) {
	if len(headAd) != len(r.Head.Args) {
		return nil, fmt.Errorf("eval: adornment %q does not fit %v", headAd, r.Head)
	}
	bound := make(map[term.Term]bool)
	var magicArgs []term.Term
	for i, c := range headAd {
		arg := r.Head.Args[i]
		if c == 'b' {
			magicArgs = append(magicArgs, arg)
			if arg.IsVar() {
				bound[arg] = true
			}
		}
	}
	guard := term.NewAtom(magicName(r.Head.Pred, headAd), magicArgs...)

	ordered := sipsOrder(r.Body, bound)

	var out []term.Rule
	newBody := term.Formula{guard}
	for _, a := range ordered {
		if term.IsComparison(a) {
			newBody = append(newBody, a)
			// Equality can bind a variable sideways.
			if a.Pred == term.PredEq {
				for _, t := range a.Args {
					if t.IsVar() {
						bound[t] = true
					}
				}
			}
			continue
		}
		if !idb(a.Pred) {
			// Stored predicate: binds all its variables.
			newBody = append(newBody, a)
			for _, t := range a.Args {
				if t.IsVar() {
					bound[t] = true
				}
			}
			continue
		}
		// IDB atom: adorn by the current bindings, emit its supplementary
		// magic rule, and continue with the adorned call.
		var ad []byte
		var callBound []term.Term
		for _, t := range a.Args {
			if t.IsConst() || bound[t] {
				ad = append(ad, 'b')
				callBound = append(callBound, t)
			} else {
				ad = append(ad, 'f')
			}
		}
		calleeAd := adornment(ad)
		enqueue(a.Pred, calleeAd)
		// Supplementary magic rule: m$callee(boundArgs) ← everything
		// established so far (the guard and the earlier body atoms).
		out = append(out, term.Rule{
			Head: term.NewAtom(magicName(a.Pred, calleeAd), callBound...),
			Body: newBody.Clone(),
		})
		newBody = append(newBody, term.Atom{Pred: adornedName(a.Pred, calleeAd), Args: a.Args})
		for _, t := range a.Args {
			if t.IsVar() {
				bound[t] = true
			}
		}
	}
	out = append(out, term.Rule{
		Head: term.Atom{Pred: adornedName(r.Head.Pred, headAd), Args: r.Head.Args},
		Body: newBody,
	})
	return out, nil
}

// sipsOrder arranges the body for sideways information passing: ordinary
// atoms keep their textual order; each comparison is placed at the
// earliest point where its variables are bound (equalities with one free
// side count as binders once the other side is available).
func sipsOrder(body term.Formula, initiallyBound map[term.Term]bool) term.Formula {
	bound := make(map[term.Term]bool, len(initiallyBound))
	for v := range initiallyBound {
		bound[v] = true
	}
	var ordinary, comparisons []term.Atom
	for _, a := range body {
		if term.IsComparison(a) {
			comparisons = append(comparisons, a)
		} else {
			ordinary = append(ordinary, a)
		}
	}
	pendingCmp := append([]term.Atom{}, comparisons...)
	var out term.Formula
	flushReady := func() {
		for changed := true; changed; {
			changed = false
			var rest []term.Atom
			for _, c := range pendingCmp {
				ready := true
				free := 0
				for _, t := range c.Args {
					if t.IsVar() && !bound[t] {
						free++
					}
				}
				if c.Pred == term.PredEq {
					ready = free <= 1
				} else {
					ready = free == 0
				}
				if ready {
					out = append(out, c)
					for _, t := range c.Args {
						if t.IsVar() {
							bound[t] = true
						}
					}
					changed = true
				} else {
					rest = append(rest, c)
				}
			}
			pendingCmp = rest
		}
	}
	flushReady()
	for _, a := range ordinary {
		out = append(out, a)
		for _, t := range a.Args {
			if t.IsVar() {
				bound[t] = true
			}
		}
		flushReady()
	}
	// Any leftover comparisons go at the end (the safety check rejected
	// genuinely unbound ones already).
	out = append(out, pendingCmp...)
	return out
}

// MagicProgram exposes the rewritten program for inspection and tests.
func MagicProgram(in Input, q Query) ([]term.Rule, error) {
	p, err := buildPlan(in, q, false)
	if err != nil {
		return nil, err
	}
	rules, _, err := magicRewrite(p, in.Store)
	if err != nil {
		return nil, err
	}
	sort.SliceStable(rules, func(i, j int) bool { return rules[i].Head.Pred < rules[j].Head.Pred })
	return rules, nil
}
