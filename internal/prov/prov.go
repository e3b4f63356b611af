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
	rule term.Rule   // as it fired, and as trees show it
	head term.Atom   // the fact it derives, over vars
	body []term.Atom // as solved, over vars
	vars []term.Term
	// slots[i] is the frame slot holding vars[i] once the body is solved,
	// -1 if nothing binds it. A witness keeps the first width slots.
	slots []int
	width int
}

// witness is one recorded derivation: the hash of the fact's key, the
// interned rule, and which chunk of the frame arena holds the frame, from
// which position.
type witness struct {
	hash               uint64
	rule, chunk, frame int32
}

// Recorder accumulates witnesses during one evaluation, which runs on
// one goroutine: a recorder is not safe for concurrent use. Intern,
// Record and Len are nil-safe, so an unrecorded evaluation's call sites
// stay trivial.
type Recorder struct {
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

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{}
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
	width := 0
	for _, s := range slots {
		width = max(width, s+1)
	}
	r.rules = append(r.rules, shape{rule: rule, head: head, body: body, vars: vars, slots: slots, width: width})
	return len(r.rules) - 1
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
	h, slot, i := r.lookup(fact)
	if i >= 0 {
		return len(r.witnesses)
	}
	if 2*(len(r.witnesses)+1) > len(r.index) {
		r.grow()
		slot = r.free(h)
	}
	r.index[slot] = int32(len(r.witnesses) + 1)
	w := witness{hash: h, rule: int32(id)}
	w.chunk, w.frame = r.keep(frame[:r.rules[id].width])
	r.witnesses = append(r.witnesses, w)
	return len(r.witnesses)
}

// Len returns the number of recorded witnesses.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.witnesses)
}

// lookup returns the hash of fact's key, the index slot where the probe
// for it ended, and fact's witness (-1 for none). The slot is free when
// there is no witness, and -1 when the index is empty.
func (r *Recorder) lookup(fact term.Atom) (h uint64, slot, i int) {
	r.key = fact.AppendKey(r.key[:0])
	h = maphash.Bytes(seed, r.key)
	if len(r.index) == 0 {
		return h, -1, -1
	}
	mask := len(r.index) - 1
	for slot = int(h) & mask; r.index[slot] != 0; slot = (slot + 1) & mask {
		i = int(r.index[slot] - 1)
		if r.witnesses[i].hash == h && bytes.Equal(r.factKey(i), r.key) {
			return h, slot, i
		}
	}
	return h, slot, -1
}

// free returns the first free slot of the probe for hash h.
func (r *Recorder) free(h uint64) int {
	mask := len(r.index) - 1
	slot := int(h) & mask
	for r.index[slot] != 0 {
		slot = (slot + 1) & mask
	}
	return slot
}

// grow doubles the index and enters every witness again.
func (r *Recorder) grow() {
	r.index = make([]int32, max(64, 2*len(r.index)))
	for i, w := range r.witnesses {
		r.index[r.free(w.hash)] = int32(i + 1)
	}
}

// factKey rebuilds, in scratch, the key of the fact witness i records.
func (r *Recorder) factKey(i int) []byte {
	s := &r.rules[r.witnesses[i].rule]
	r.other = s.groundInto(r.other[:0], s.head, r.frame(i))
	r.otherKey = term.Atom{Pred: s.head.Pred, Args: r.other}.AppendKey(r.otherKey[:0])
	return r.otherKey
}

// keep copies frame into the arena and says where it went.
func (r *Recorder) keep(frame []term.Term) (chunk, at int32) {
	last := len(r.frames) - 1
	if last < 0 || cap(r.frames[last])-len(r.frames[last]) < len(frame) {
		n := 64
		if last >= 0 {
			n = 2 * cap(r.frames[last])
		}
		r.frames = append(r.frames, make([]term.Term, 0, max(n, len(frame))))
		last++
	}
	c := &r.frames[last]
	at = int32(len(*c))
	*c = append(*c, frame...)
	return int32(last), at
}

// frame returns the frame of witness i.
func (r *Recorder) frame(i int) []term.Term {
	w := r.witnesses[i]
	return r.frames[w.chunk][w.frame:][:r.rules[w.rule].width]
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
