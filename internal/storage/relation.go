// Package storage implements the extensional database (the paper's set P
// of stored predicates): per-predicate relations with hash indexes on
// bound-column patterns, a store aggregating them, and optional
// durability via snapshot files plus a write-ahead log with CRC-checked
// records and crash recovery.
package storage

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"kdb/internal/term"
)

// Tuple is one stored fact's argument list. All terms are constants.
type Tuple []term.Term

// Key returns a canonical byte-string identity for the tuple.
func (t Tuple) Key() string {
	var buf [keyBufLen]byte
	return string(appendMaskKey(buf[:0], t, allColumns))
}

// Clone returns an independent copy.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Counters is the optional observability hook of a Relation: a set of
// monotonically increasing atomic counters an evaluation layer can attach
// to the relations it touches. All fields are safe for concurrent use.
type Counters struct {
	// Probes counts Select calls served by the relation.
	Probes atomic.Int64
	// Candidates counts candidate tuples examined while serving probes
	// (after index narrowing, before the final pattern check).
	Candidates atomic.Int64
	// IndexBuilds counts hash indexes built on first use of a bound-column
	// mask.
	IndexBuilds atomic.Int64
	// FullScans counts the subset of Probes served without an index (no
	// bound position): the whole extension was enumerated. Index-served
	// probes are Probes - FullScans.
	FullScans atomic.Int64

	// next, when set, receives a copy of every event charged to this
	// sink, so a narrow-scope sink (one rule's join work) can feed a
	// wider one (the whole query) without double bookkeeping at the
	// probe sites. Set via Chain before the sink is shared; the chain
	// itself is immutable afterwards.
	next *Counters
}

// Chain links parent downstream of c: every probe, candidate, index
// build, and full scan charged to c is also charged to parent (and to
// parent's own chain, transitively). It must be called before c is
// handed to any concurrent user.
func (c *Counters) Chain(parent *Counters) { c.next = parent }

// addProbe charges one probe with its candidate count (and, when the
// probe had no usable index, a full scan) to the sink and its chain.
//
//kdb:hotpath
func (c *Counters) addProbe(fullScan bool, candidates int64) {
	for s := c; s != nil; s = s.next {
		s.Probes.Add(1)
		s.Candidates.Add(candidates)
		if fullScan {
			s.FullScans.Add(1)
		}
	}
}

// addIndexBuild charges one index build to the sink and its chain.
//
//kdb:hotpath
func (c *Counters) addIndexBuild() {
	for s := c; s != nil; s = s.next {
		s.IndexBuilds.Add(1)
	}
}

// Relation is the stored extension of one predicate: a duplicate-free set
// of tuples with lazily built hash indexes. All methods are safe for
// concurrent use.
//
// Readers (Scan, Select) capture the tuple slice and, for an indexed
// probe, one posting list under a single RLock and iterate them after
// releasing it: a callback may insert into the relation it is scanning,
// so the lock cannot be held across callbacks. Insert only appends past
// every captured length. Delete edits the slice and the posting lists in
// place when no reader is between capture and the end of its iteration
// (the readers count), and otherwise replaces what it touches with
// edited copies, so a reader always iterates one consistent version.
type Relation struct {
	mu    sync.RWMutex
	arity int
	// tuples holds the extension: in insertion order until the first
	// Delete, which moves the last tuple into the freed slot.
	//kdb:guarded-by mu
	tuples []Tuple
	// present maps Tuple.Key to its index in tuples, for deduplication.
	//kdb:guarded-by mu
	present map[string]int
	// indexes maps a bound-column bitmask to a hash index: the key of the
	// bound column values → indices of matching tuples, never an empty
	// list. Indexes are built on first use for a mask and maintained by
	// every Insert and Delete afterwards.
	//kdb:guarded-by mu
	indexes map[uint64]map[string][]int
	// readers counts the Scans and Selects still iterating what they
	// captured: raised under the lock, lowered after the last access.
	readers atomic.Int32
	// counters, when set, receives observability events. Attaching is
	// last-writer-wins: counts accrue to the most recently attached sink.
	counters atomic.Pointer[Counters]
}

// NewRelation returns an empty relation of the given arity. The arity
// must be in [0, 63]: column-bitmask indexes use one bit per position.
// A hostile or malformed input (e.g. a parsed atom with 64+ arguments)
// surfaces as an error, not a panic.
func NewRelation(arity int) (*Relation, error) {
	if arity < 0 || arity > 63 {
		return nil, fmt.Errorf("storage: unsupported arity %d (must be 0..63)", arity)
	}
	return &Relation{
		arity:   arity,
		present: make(map[string]int),
		indexes: make(map[uint64]map[string][]int),
	}, nil
}

// Arity returns the relation's arity.
func (r *Relation) Arity() int { return r.arity }

// SetCounters attaches (or, with nil, detaches) an observability sink
// used when a probe does not carry its own (Select). It suits relations
// private to one evaluation (derived relations, top-down tables); for
// relations shared by concurrent queries, pass a per-query sink to
// SelectCounted instead, so counts can never accrue to another query's
// statistics.
func (r *Relation) SetCounters(c *Counters) { r.counters.Store(c) }

// Len returns the number of stored tuples.
func (r *Relation) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.tuples)
}

// Insert adds a tuple, reporting whether it was new. Tuples must be
// ground and of the right arity.
func (r *Relation) Insert(t Tuple) (bool, error) {
	if len(t) != r.arity {
		return false, fmt.Errorf("storage: tuple arity %d, want %d", len(t), r.arity)
	}
	for _, x := range t {
		if x.IsVar() {
			return false, fmt.Errorf("storage: cannot store non-ground tuple containing %v", x)
		}
	}
	var buf [keyBufLen]byte
	key := appendMaskKey(buf[:0], t, allColumns)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.present[string(key)]; dup {
		return false, nil
	}
	idx := len(r.tuples)
	r.tuples = append(r.tuples, t.Clone())
	r.present[string(key)] = idx
	for mask, index := range r.indexes {
		k := appendMaskKey(buf[:0], t, mask)
		index[string(k)] = append(index[string(k)], idx)
	}
	return true, nil
}

// Delete removes a tuple, reporting whether it was present. The last
// tuple moves into the freed slot, and every built index is maintained
// rather than dropped: the freed position leaves its posting list and
// the moved tuple's position is rewritten in its own. Only while a
// reader is still iterating (see Relation) does it copy what it edits.
func (r *Relation) Delete(t Tuple) (bool, error) {
	if len(t) != r.arity {
		return false, fmt.Errorf("storage: tuple arity %d, want %d", len(t), r.arity)
	}
	var buf [keyBufLen]byte
	key := appendMaskKey(buf[:0], t, allColumns)
	r.mu.Lock()
	defer r.mu.Unlock()
	idx, ok := r.present[string(key)]
	if !ok {
		return false, nil
	}
	shared := r.readers.Load() != 0
	last := len(r.tuples) - 1
	gone, moved := r.tuples[idx], r.tuples[last]
	next := r.tuples[:last]
	if c := cap(r.tuples); shared || last < c/4 {
		// Also the point at which a shrunken relation gives memory back.
		next = append(make([]Tuple, 0, min(c, 2*last)), next...)
	} else {
		r.tuples[last] = nil
	}
	delete(r.present, string(key))
	if idx != last {
		next[idx] = moved
		r.present[string(appendMaskKey(buf[:0], moved, allColumns))] = idx
	}
	r.tuples = next
	for mask, index := range r.indexes {
		k := appendMaskKey(buf[:0], gone, mask)
		if list := index[string(k)]; len(list) == 1 {
			delete(index, string(k)) // no empty list is left behind
		} else {
			index[string(k)] = replacePosting(list, idx, list[len(list)-1], shared)[:len(list)-1]
		}
		if idx != last {
			k = appendMaskKey(buf[:0], moved, mask)
			index[string(k)] = replacePosting(index[string(k)], last, idx, shared)
		}
	}
	return true, nil
}

// replacePosting overwrites position old in list with pos, in a copy of
// the list when a reader may hold it.
func replacePosting(list []int, old, pos int, shared bool) []int {
	if shared {
		list = slices.Clone(list)
	}
	list[slices.Index(list, old)] = pos
	return list
}

// Contains reports whether the exact tuple is stored.
func (r *Relation) Contains(t Tuple) bool {
	var buf [keyBufLen]byte
	key := appendMaskKey(buf[:0], t, allColumns)
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.present[string(key)]
	return ok
}

// snapshot captures the current extension for a reader, which must call
// done when it has finished iterating it.
func (r *Relation) snapshot() []Tuple {
	r.mu.RLock()
	defer r.mu.RUnlock()
	r.readers.Add(1)
	return r.tuples
}

// done ends the iteration a snapshot or lookup began.
func (r *Relation) done() { r.readers.Add(-1) }

// Scan calls fn for every tuple until fn returns false: in insertion
// order as long as nothing was ever deleted. The tuple passed to fn must
// not be modified.
func (r *Relation) Scan(fn func(Tuple) bool) {
	defer r.done()
	for _, t := range r.snapshot() {
		if !fn(t) {
			return
		}
	}
}

// Select calls fn for every tuple matching the pattern until fn returns
// false. The pattern has the relation's arity; constant positions must
// match exactly and variable positions match anything (repeated
// variables in the pattern must match equal values). When at least one
// position is bound, a hash index on that column set is used (built on
// first use).
func (r *Relation) Select(pattern []term.Term, fn func(Tuple) bool) error {
	return r.SelectCounted(pattern, nil, fn)
}

// SelectCounted is Select with an explicit observability sink for this
// probe. A nil sink falls back to the relation-attached counters (see
// SetCounters). Threading the sink per call keeps concurrent queries'
// statistics independent even though they share the stored relation.
func (r *Relation) SelectCounted(pattern []term.Term, c *Counters, fn func(Tuple) bool) error {
	if len(pattern) != r.arity {
		return fmt.Errorf("storage: pattern arity %d, want %d", len(pattern), r.arity)
	}
	if c == nil {
		c = r.counters.Load()
	}
	var mask uint64
	for i, p := range pattern {
		if p.IsConst() {
			mask |= 1 << uint(i)
		}
	}
	defer r.done()
	if mask == 0 {
		all := r.snapshot()
		if c != nil {
			c.addProbe(true, int64(len(all)))
		}
		for _, t := range all {
			if matches(pattern, t) && !fn(t) {
				return nil
			}
		}
		return nil
	}
	tuples, idxs := r.lookup(mask, pattern, c)
	if c != nil {
		c.addProbe(false, int64(len(idxs)))
	}
	for _, i := range idxs {
		if t := tuples[i]; matches(pattern, t) && !fn(t) {
			return nil
		}
	}
	return nil
}

// lookup captures, for a reader (see snapshot), the candidate positions
// for the mask/pattern pair and the tuple slice they index under one
// lock acquisition, so that both belong to one version. The index is
// built on first use; builds are charged to c, the probe's sink.
func (r *Relation) lookup(mask uint64, pattern []term.Term, c *Counters) ([]Tuple, []int) {
	var buf [keyBufLen]byte
	key := appendMaskKey(buf[:0], pattern, mask)
	r.mu.RLock()
	if index, ok := r.indexes[mask]; ok {
		tuples, idxs := r.tuples, index[string(key)]
		r.readers.Add(1)
		r.mu.RUnlock()
		return tuples, idxs
	}
	r.mu.RUnlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.readers.Add(1)
	index, ok := r.indexes[mask]
	if !ok {
		index = make(map[string][]int)
		var kbuf [keyBufLen]byte // key still lives in buf
		for i, t := range r.tuples {
			k := appendMaskKey(kbuf[:0], t, mask)
			index[string(k)] = append(index[string(k)], i)
		}
		r.indexes[mask] = index
		if c != nil {
			c.addIndexBuild()
		}
	}
	return r.tuples, index[string(key)]
}

// matches reports whether the tuple agrees with the pattern's constants
// and with repeated pattern variables: a variable's position must hold
// what the variable's earlier position holds.
//
//kdb:hotpath
func matches(pattern []term.Term, t Tuple) bool {
	for i, p := range pattern {
		if p.IsConst() {
			if p != t[i] {
				return false
			}
			continue
		}
		for j := range i {
			if pattern[j] == p {
				if t[j] != t[i] {
					return false
				}
				break
			}
		}
	}
	return true
}

const (
	keyBufLen  = 64         // stack buffer a key is built in; longer keys spill to the heap
	allColumns = ^uint64(0) // the mask of a whole-tuple key
)

// appendMaskKey appends the identity of the masked columns of t to b.
func appendMaskKey(b []byte, t []term.Term, mask uint64) []byte {
	for i, x := range t {
		if mask&(1<<uint(i)) != 0 {
			b = appendTermKey(b, x)
		}
	}
	return b
}
