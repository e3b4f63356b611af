package core

import (
	"fmt"
	"math/rand"
	"testing"

	"kdb/internal/depgraph"
	"kdb/internal/term"
)

// mapBindings is the frame's model: the map-backed bindings the search
// and the matcher used before the frame, kept as they were.
type mapBindings struct {
	m     term.Subst
	trail []binding
}

func (b *mapBindings) walk(t term.Term) term.Term { return b.m.Walk(t) }

func (b *mapBindings) mark() int { return len(b.trail) }

func (b *mapBindings) undo(mark int) {
	for i := len(b.trail) - 1; i >= mark; i-- {
		e := b.trail[i]
		if e.val == (term.Term{}) {
			delete(b.m, e.v)
		} else {
			b.m[e.v] = e.val
		}
	}
	b.trail = b.trail[:mark]
}

func (b *mapBindings) bind(v, t term.Term) {
	b.trail = append(b.trail, binding{v: v})
	b.m[v] = t
}

func (b *mapBindings) rebind(v, t term.Term) {
	for k, old := range b.m {
		if old == v {
			b.trail = append(b.trail, binding{k, old})
			b.m[k] = t
		}
	}
	b.bind(v, t)
}

func (b *mapBindings) unify(x, y term.Atom) bool {
	if x.Pred != y.Pred || len(x.Args) != len(y.Args) {
		return false
	}
	mark := len(b.trail)
	for i := range x.Args {
		s, t := b.m.Walk(x.Args[i]), b.m.Walk(y.Args[i])
		switch {
		case s == t:
		case s.IsVar():
			b.bind(s, t)
		case t.IsVar():
			b.bind(t, s)
		default:
			b.undo(mark)
			return false
		}
	}
	return true
}

// frameVars are the variables the frame test draws from: written ones,
// a Renamer's, and the matcher's pattern variables, two of them on the
// numbers of renamed ones, so a slot the two sources shared would show.
var frameVars = []term.Term{
	term.Var("X"), term.Var("Y"), term.Var("X_1"),
	term.NumberedVar("X", 1), term.NumberedVar("Y", 2), term.NumberedVar("X", 4),
	term.NumberedVar("R", patternBase), term.NumberedVar("R", patternBase+1), term.NumberedVar("R", patternBase+2),
}

var frameTerms = append([]term.Term{term.Sym("a"), term.Sym("b"), term.Num(1)}, frameVars...)

// TestFrameMatchesMap: over seeded sequences of unify, bind, rebind,
// undo and walk — self-bindings and both numbering sources included —
// the frame binds what the map-backed model binds. A walk that would not
// end (a self-binding without its guard) fails on the frame's step
// bound, not by hanging the test.
func TestFrameMatchesMap(t *testing.T) {
	seeds := 3000
	if testing.Short() {
		seeds = 500
	}
	shapes := map[string]int{}
	for seed := 1; seed <= seeds; seed++ {
		if err := frameSequence(rand.New(rand.NewSource(int64(seed))), shapes); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	for _, want := range []string{"self-binding", "rebind rewrote", "pattern and renamed variable bound at once", "undo to a mark", "failed unify"} {
		if shapes[want] == 0 {
			t.Errorf("no sequence had: %s", want)
		}
	}
	t.Logf("shapes: %v", shapes)
}

// frameSequence runs one seeded sequence on a frame and on the model and
// reports the first difference.
func frameSequence(r *rand.Rand, shapes map[string]int) (err error) {
	var f bindings
	m := mapBindings{m: term.NewSubst(8)}
	var marks []int
	var log []string
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%v after %q", p, log)
		}
	}()
	pick := func(ts []term.Term) term.Term { return ts[r.Intn(len(ts))] }
	unbound := func() (term.Term, bool) {
		v := pick(frameVars)
		_, bound := m.m[v]
		return v, !bound
	}
	for op := 0; op < 40; op++ {
		switch k := r.Intn(10); {
		case k < 3:
			x := term.NewAtom("p", pick(frameTerms), pick(frameTerms))
			y := term.NewAtom("p", pick(frameTerms), pick(frameTerms))
			log = append(log, fmt.Sprintf("unify %v %v", x, y))
			got, want := f.unify(x, y), m.unify(x, y)
			if got != want {
				return fmt.Errorf("unify(%v, %v) = %v, model %v after %q", x, y, got, want, log)
			}
			if !want {
				shapes["failed unify"]++
			}
		case k < 5:
			v, ok := unbound()
			if !ok {
				continue
			}
			to := m.walk(pick(frameTerms)) // a chain's end, or v itself
			if to == v {
				shapes["self-binding"]++
			}
			log = append(log, fmt.Sprintf("bind %v %v", v, to))
			f.bind(v, to)
			m.bind(v, to)
		case k < 7:
			v, ok := unbound()
			if !ok {
				continue
			}
			// The matcher rebinds the end of a chain to a target term: a
			// chain's end, or a variable bound to v, which then binds to
			// itself.
			to := m.walk(pick(frameTerms))
			for _, w := range frameVars {
				if val, ok := m.m[w]; ok && val == v && r.Intn(2) == 0 {
					to = w
					shapes["self-binding"]++
					break
				}
			}
			if to == v {
				continue
			}
			before := len(m.trail)
			log = append(log, fmt.Sprintf("rebind %v %v", v, to))
			f.rebind(v, to)
			m.rebind(v, to)
			if len(m.trail) > before+1 {
				shapes["rebind rewrote"]++
			}
		case k < 8:
			marks = append(marks, m.mark())
			if f.mark() != m.mark() {
				return fmt.Errorf("mark %d, model %d after %q", f.mark(), m.mark(), log)
			}
		default:
			to := 0
			if len(marks) > 0 && r.Intn(3) > 0 {
				i := r.Intn(len(marks))
				to, marks = marks[i], marks[:i]
				shapes["undo to a mark"]++
			} else {
				marks = marks[:0]
			}
			log = append(log, fmt.Sprintf("undo %d", to))
			f.undo(to)
			m.undo(to)
		}
		if f.bound() != len(m.m) {
			return fmt.Errorf("%d variables bound, model %d after %q", f.bound(), len(m.m), log)
		}
		renamed, pattern := false, false
		for _, v := range frameVars {
			if got, want := f.walk(v), m.walk(v); got != want {
				return fmt.Errorf("walk(%v) = %v, model %v after %q", v, got, want, log)
			}
			if _, ok := m.m[v]; ok {
				renamed = renamed || v.Number() > 0 && v.Number() < patternBase
				pattern = pattern || v.Number() >= patternBase
			}
		}
		if renamed && pattern {
			shapes["pattern and renamed variable bound at once"]++
		}
	}
	return nil
}

// TestDependsOnRecursiveMatchesDefinition: the set the graph computes
// once is the definition's — the predicate is recursive, or some
// predicate it depends on is — on the oracle's generated rule sets.
func TestDependsOnRecursiveMatchesDefinition(t *testing.T) {
	seeds := 1500
	if testing.Short() {
		seeds = 200
	}
	recursive := 0
	for seed := 1; seed <= seeds; seed++ {
		g := &generator{r: rand.New(rand.NewSource(int64(seed))), feat: make(genFeatures)}
		dg := depgraph.New(g.generate().rules)
		preds := map[string]bool{}
		for _, r := range dg.Rules() {
			preds[r.Head.Pred] = true
			for _, a := range r.Body {
				preds[a.Pred] = true
			}
		}
		for p := range preds {
			want := dg.IsRecursivePred(p)
			for q := range dg.Reach(p) {
				want = want || dg.IsRecursivePred(q)
			}
			if got := dg.DependsOnRecursive(p); got != want {
				t.Fatalf("seed %d: DependsOnRecursive(%s) = %v, want %v\n%v", seed, p, got, want, dg.Rules())
			}
			if want {
				recursive++
			}
		}
	}
	if recursive == 0 {
		t.Error("no generated predicate depends on recursion")
	}
}
