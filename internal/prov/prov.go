// Package prov implements why-provenance for derived facts: while an
// evaluation engine runs with recording enabled, every newly derived
// fact is paired with one witness — the rule that fired and the values
// its body was solved with. The store is compact (one witness per fact,
// first derivation wins, each a rule id and a copy of the solver's frame
// in an arena, found again by the hash of the fact's key) and the
// derivation tree of any recorded fact can be reconstructed after the
// query, cycle-safely, with EDB and built-in leaves distinguished as in
// the paper's derivation trees (Algorithm 1). Ground body atoms and
// display rules are built only for the nodes a tree visits.
//
// Recording is strictly opt-in: engines hold a nil *Recorder by default
// and guard every call site with a nil check, so the hot derive path of
// an unrecorded query pays nothing (enforced by alloc-counting tests in
// internal/eval).
package prov

import (
	"bytes"
	"hash/maphash"
	"slices"

	"kdb/internal/term"
)

// shape is what the recorder keeps of one interned rule: enough to turn
// a witness's frame back into the fact the rule derived and the ground
// body it fired with.
type shape struct {
	rule term.Rule   // as it fired; shown in trees after rewrite
	head term.Atom   // the fact it derives, over vars
	body []term.Atom // as solved, over vars
	vars []term.Term
	// slots[i] is the frame slot holding vars[i] once the body is solved,
	// -1 if nothing binds it. A witness keeps the first width slots.
	slots   []int
	width   int
	rewrite func(term.Atom) (term.Atom, bool) // the interning view's, or nil
}

// witness is one recorded derivation: the hash of the fact's key, the
// interned rule, and which chunk of the frame arena holds the frame, from
// which position.
type witness struct {
	hash               uint64
	rule, chunk, frame int32
}

// recorderState is the shared core of a Recorder; rewritten views (see
// Rewritten) alias it so the magic engine records into the same store.
type recorderState struct {
	witnesses []witness
	// index finds a witness by the hash of its fact's key: open
	// addressing, at most half full, each slot 1 + a witness or 0.
	index []int32
	// frames holds every witness's frame in chunks that are never
	// copied: each is twice the size of the one before, and a frame does
	// not straddle two.
	frames [][]term.Term
	rules  []shape
	// Scratch for lookup: the key of the fact looked for, and a recorded
	// fact and its key.
	key, otherKey []byte
	other         []term.Term
}

// seed hashes fact keys for the index.
var seed = maphash.MakeSeed()

// Recorder accumulates witnesses during one evaluation, which runs on
// one goroutine: a recorder is not safe for concurrent use. All methods
// are nil-safe so ungoverned call sites stay trivial.
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
	return &Recorder{state: &recorderState{}}
}

// Rewritten returns a view of r that applies fn to every fact, parent,
// and rule atom of what it records, into the same underlying store. The
// magic engine uses it to record witnesses under the original
// (unadorned) predicate names of the source program. Facts are rewritten
// as they are recorded; bodies and rules when a tree is built.
func (r *Recorder) Rewritten(fn func(term.Atom) (term.Atom, bool)) *Recorder {
	if r == nil {
		return nil
	}
	return &Recorder{state: r.state, rewrite: fn}
}

// Intern registers a rule whose solutions Record will be given and
// returns the id Record takes. rule is the rule as it fires; head and
// body are the fact it derives and its body as solved, over the
// variables vars; slots[i] is the frame slot that holds vars[i] once the
// body is solved, -1 if nothing binds it. Nothing is copied: the atoms
// and slices must not change afterwards.
func (r *Recorder) Intern(rule term.Rule, head term.Atom, body []term.Atom, vars []term.Term, slots []int) int {
	if r == nil {
		return -1
	}
	st := r.state
	width := 0
	for _, s := range slots {
		width = max(width, s+1)
	}
	st.rules = append(st.rules, shape{rule: rule, head: head, body: body, vars: vars, slots: slots, width: width, rewrite: r.rewrite})
	return len(st.rules) - 1
}

// Record stores the first witness for fact: the rule interned as id
// fired with the values frame holds. Neither fact nor frame is kept, so
// both may be buffers the caller reuses. It returns the total number of
// recorded witnesses, which the caller checks against the governor's
// MaxProvenanceEntries.
//
// Later witnesses for an already recorded fact are ignored: the first
// derivation is the one the reconstruction shows, which keeps the
// witness graph well-founded for a single engine run.
func (r *Recorder) Record(id int, fact term.Atom, frame []term.Term) int {
	if r == nil {
		return 0
	}
	st := r.state
	if r.rewrite != nil {
		var ok bool
		if fact, ok = r.rewrite(fact); !ok {
			return len(st.witnesses)
		}
	}
	h, slot, i := st.lookup(fact)
	if i >= 0 {
		return len(st.witnesses)
	}
	if 2*(len(st.witnesses)+1) > len(st.index) {
		st.grow()
		slot = st.free(h)
	}
	st.index[slot] = int32(len(st.witnesses) + 1)
	w := witness{hash: h, rule: int32(id)}
	w.chunk, w.frame = st.keep(frame[:st.rules[id].width])
	st.witnesses = append(st.witnesses, w)
	return len(st.witnesses)
}

// Len returns the number of recorded witnesses.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.state.witnesses)
}

// lookup returns the hash of fact's key, the index slot where the probe
// for it ended, and fact's witness (-1 for none). The slot is free when
// there is no witness, and -1 when the index is empty.
func (st *recorderState) lookup(fact term.Atom) (h uint64, slot, i int) {
	st.key = fact.AppendKey(st.key[:0])
	h = maphash.Bytes(seed, st.key)
	if len(st.index) == 0 {
		return h, -1, -1
	}
	mask := len(st.index) - 1
	for slot = int(h) & mask; st.index[slot] != 0; slot = (slot + 1) & mask {
		i = int(st.index[slot] - 1)
		if st.witnesses[i].hash == h && bytes.Equal(st.factKey(i), st.key) {
			return h, slot, i
		}
	}
	return h, slot, -1
}

// free returns the first free slot of the probe for hash h.
func (st *recorderState) free(h uint64) int {
	mask := len(st.index) - 1
	slot := int(h) & mask
	for st.index[slot] != 0 {
		slot = (slot + 1) & mask
	}
	return slot
}

// grow doubles the index and enters every witness again.
func (st *recorderState) grow() {
	st.index = make([]int32, max(64, 2*len(st.index)))
	for i, w := range st.witnesses {
		st.index[st.free(w.hash)] = int32(i + 1)
	}
}

// factKey rebuilds, in scratch, the key of the fact witness i records.
func (st *recorderState) factKey(i int) []byte {
	s := &st.rules[st.witnesses[i].rule]
	st.other = s.groundInto(st.other[:0], s.head, st.frame(i))
	fact := term.Atom{Pred: s.head.Pred, Args: st.other}
	if s.rewrite != nil {
		fact, _ = s.rewrite(fact)
	}
	st.otherKey = fact.AppendKey(st.otherKey[:0])
	return st.otherKey
}

// keep copies frame into the arena and says where it went.
func (st *recorderState) keep(frame []term.Term) (chunk, at int32) {
	last := len(st.frames) - 1
	if last < 0 || cap(st.frames[last])-len(st.frames[last]) < len(frame) {
		n := 64
		if last >= 0 {
			n = 2 * cap(st.frames[last])
		}
		st.frames = append(st.frames, make([]term.Term, 0, max(n, len(frame))))
		last++
	}
	c := &st.frames[last]
	at = int32(len(*c))
	*c = append(*c, frame...)
	return int32(last), at
}

// frame returns the frame of witness i.
func (st *recorderState) frame(i int) []term.Term {
	w := st.witnesses[i]
	return st.frames[w.chunk][w.frame:][:st.rules[w.rule].width]
}

// ground instantiates a, an atom of the rule's body, with the values
// frame holds.
func (s *shape) ground(a term.Atom, frame []term.Term) term.Atom {
	return term.Atom{Pred: a.Pred, Args: s.groundInto(make([]term.Term, 0, len(a.Args)), a, frame)}
}

// groundInto appends a's arguments to dst with the values frame holds in
// place of the variables. A variable nothing binds stays as it is.
func (s *shape) groundInto(dst []term.Term, a term.Atom, frame []term.Term) []term.Term {
	for _, t := range a.Args {
		if t.IsVar() {
			if j := slices.Index(s.vars, t); j >= 0 && s.slots[j] >= 0 {
				t = frame[s.slots[j]]
			}
		}
		dst = append(dst, t)
	}
	return dst
}

// display is the rule as trees show it: under a rewriting view the head
// and every body atom go through the rewrite hook, and dropped atoms
// (magic guards) disappear from the body. Comparisons are kept as-is.
func (s *shape) display() term.Rule {
	if s.rewrite == nil {
		return s.rule
	}
	head, _ := s.rewrite(s.rule.Head)
	out := term.Rule{Head: head, Pos: s.rule.Pos}
	for _, a := range s.rule.Body {
		if term.IsComparison(a) {
			out.Body = append(out.Body, a)
			continue
		}
		if b, ok := s.rewrite(a); ok {
			out.Body = append(out.Body, b)
		}
	}
	return out
}
