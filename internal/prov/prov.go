// Package prov implements why-provenance for derived facts: while an
// evaluation engine runs with recording enabled, every newly derived
// fact is paired with one witness — the rule that fired and the ground
// parent facts that satisfied its body. The store is compact (one
// witness per fact, first derivation wins, rules interned by identity)
// and the derivation tree of any recorded fact can be reconstructed
// after the query, cycle-safely, with EDB and built-in leaves
// distinguished as in the paper's derivation trees (Algorithm 1).
//
// Recording is strictly opt-in: engines hold a nil *Recorder by default
// and guard every call site with a nil check, so the hot derive path of
// an unrecorded query pays nothing (enforced by alloc-counting tests in
// internal/eval).
package prov

import (
	"sync"

	"kdb/internal/term"
)

// Witness is one recorded derivation step: Fact was produced by the
// rule identified by RuleID within the recorder, from the ground Body
// atoms — parent facts and the comparison atoms that held, in rule-body
// order (comparisons are told apart by term.IsComparison).
type Witness struct {
	Fact   term.Atom
	RuleID int
	Body   []term.Atom
}

// recorderState is the shared core of a Recorder; rewritten views (see
// Rewritten) alias it so the magic engine records into the same store.
type recorderState struct {
	mu        sync.Mutex
	witnesses map[string]*Witness // fact key → first witness
	ruleIDs   map[string]int      // rule key → id (index into rules)
	rules     []term.Rule
}

// Recorder accumulates witnesses during one evaluation. It is safe for
// concurrent use. All methods are nil-safe so ungoverned call sites stay
// trivial.
type Recorder struct {
	state *recorderState
	// rewrite, when set, maps each atom before recording and may drop
	// it (the magic engine strips adornments and discards magic
	// guards). Returning ok=false for a fact skips the whole witness;
	// for a parent it removes just that parent.
	rewrite func(term.Atom) (term.Atom, bool)
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{state: &recorderState{
		witnesses: make(map[string]*Witness),
		ruleIDs:   make(map[string]int),
	}}
}

// Rewritten returns a view of r that applies fn to every fact, parent,
// and rule atom before recording into the same underlying store. The
// magic engine uses it to record witnesses under the original
// (unadorned) predicate names of the source program.
func (r *Recorder) Rewritten(fn func(term.Atom) (term.Atom, bool)) *Recorder {
	if r == nil {
		return nil
	}
	return &Recorder{state: r.state, rewrite: fn}
}

// Record stores the first witness for fact: rule fired under
// substitution s, with body the (possibly partially instantiated) rule
// body whose full instantiation under s yields the parent facts. It
// returns the total number of recorded witnesses, which the caller
// checks against the governor's MaxProvenanceEntries.
//
// Later witnesses for an already recorded fact are ignored: the first
// derivation is the one the reconstruction shows, which keeps the
// witness graph well-founded for a single engine run.
func (r *Recorder) Record(fact term.Atom, rule term.Rule, body term.Formula, s term.Subst) int {
	if r == nil {
		return 0
	}
	if r.rewrite != nil {
		var ok bool
		if fact, ok = r.rewrite(fact); !ok {
			return r.Len()
		}
	}
	key := fact.Key()
	st := r.state

	st.mu.Lock()
	if _, dup := st.witnesses[key]; dup {
		n := len(st.witnesses)
		st.mu.Unlock()
		return n
	}
	st.mu.Unlock()

	// Build the witness outside the lock: Key/Apply allocate.
	w := &Witness{Fact: fact}
	for _, a := range body {
		ground := s.Apply(a)
		if !term.IsComparison(ground) && r.rewrite != nil {
			var ok bool
			if ground, ok = r.rewrite(ground); !ok {
				continue
			}
		}
		w.Body = append(w.Body, ground)
	}
	display := rule
	if r.rewrite != nil {
		display = r.rewriteRule(rule)
	}
	ruleKey := display.Key()

	st.mu.Lock()
	defer st.mu.Unlock()
	if _, dup := st.witnesses[key]; dup { // lost the race to another goroutine
		return len(st.witnesses)
	}
	id, ok := st.ruleIDs[ruleKey]
	if !ok {
		id = len(st.rules)
		st.ruleIDs[ruleKey] = id
		st.rules = append(st.rules, display)
	}
	w.RuleID = id
	st.witnesses[key] = w
	return len(st.witnesses)
}

// rewriteRule maps a rule of the rewritten program back to presentation
// form: the head and every body atom go through the rewrite hook, and
// dropped atoms (magic guards) disappear from the body. Comparisons are
// kept as-is.
func (r *Recorder) rewriteRule(rule term.Rule) term.Rule {
	head, _ := r.rewrite(rule.Head)
	out := term.Rule{Head: head, Pos: rule.Pos}
	for _, a := range rule.Body {
		if term.IsComparison(a) {
			out.Body = append(out.Body, a)
			continue
		}
		if b, ok := r.rewrite(a); ok {
			out.Body = append(out.Body, b)
		}
	}
	return out
}

// Len returns the number of recorded witnesses.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.state.mu.Lock()
	defer r.state.mu.Unlock()
	return len(r.state.witnesses)
}

// witness returns the recorded witness for the ground atom, or nil.
func (r *Recorder) witness(key string) *Witness {
	r.state.mu.Lock()
	defer r.state.mu.Unlock()
	return r.state.witnesses[key]
}

// rule returns the interned rule with the given id.
func (r *Recorder) rule(id int) term.Rule {
	r.state.mu.Lock()
	defer r.state.mu.Unlock()
	return r.state.rules[id]
}
