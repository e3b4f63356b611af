// Package storage implements the extensional database (the paper's set P
// of stored predicates): per-predicate relations with hash indexes on
// bound-column patterns, a store aggregating them, and optional
// durability via snapshot files plus a write-ahead log with CRC-checked
// records and crash recovery.
//
// A relation holds stored facts only; the facts an evaluation derives
// live in the evaluator's own tables, which share this package's tuple
// identity (identity.go). A relation identifies a tuple by a 64-bit hash
// of its terms and never by the hash alone: every hit is confirmed
// against the stored tuple, and distinct tuples that share a hash are all
// kept. Hashes are seeded per process and never written to disk; the
// snapshot and the log encode terms as codec.go does.
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

// Key returns a canonical byte-string identity for the tuple: the codec
// encoding of its terms.
func (t Tuple) Key() string {
	var buf [64]byte
	b := buf[:0]
	for _, x := range t {
		b = appendTermKey(b, x)
	}
	return string(b)
}

// Clone returns an independent copy.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Counters is the observability sink of one statement's probes: the
// statement passes it to every probe it issues, stored or derived, and
// reads it on its own goroutine, so the counts are plain integers.
type Counters struct {
	// Probes counts the probes served, by a stored relation or a derived
	// table.
	Probes int64
	// Candidates counts candidate tuples examined while serving probes
	// (after index narrowing, before the final pattern check).
	Candidates int64
	// IndexBuilds counts hash indexes built on first use of a bound-column
	// mask. A mask is served without a build while an index on a subset
	// of its columns is selective (see SubsetChoice).
	IndexBuilds int64
	// FullScans counts the subset of Probes served without an index (no
	// bound position): the whole extension was enumerated. Index-served
	// probes are Probes - FullScans.
	FullScans int64
}

// AddProbe charges one probe with its candidate count (and, when the
// probe had no usable index, a full scan) to the sink.
func (c *Counters) AddProbe(fullScan bool, candidates int64) {
	c.Probes++
	c.Candidates += candidates
	if fullScan {
		c.FullScans++
	}
}

// Relation is the stored extension of one predicate: a duplicate-free set
// of tuples with lazily built hash indexes. All methods are safe for
// concurrent use.
//
// Identity is by hash, exact on collision. A tuple is found through
// present, keyed by the hash of all its terms, or — when another tuple
// already holds that hash — through overflow, keyed by Tuple.Key. Every
// hit is compared term by term with the codec's identity (kind, then the
// name, numbers by bit pattern, so 0 and -0 are two facts). Index keys
// are hashes of the bound columns; a colliding bucket only adds
// candidates, which the pattern check removes.
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
	// present maps a tuple's hash to its index in tuples, for the first
	// tuple stored under that hash.
	//kdb:guarded-by mu
	present map[uint64]int
	// overflow maps Tuple.Key to the index of a tuple whose hash present
	// already gave to a different tuple. It is empty unless two distinct
	// tuples have collided, and only then is a key string ever built.
	//kdb:guarded-by mu
	overflow map[string]int
	// indexes maps a bound-column bitmask to a hash index: the hash of
	// the bound column values → indices of the tuples with that hash,
	// never an empty list. Indexes are built on first use for a mask and
	// maintained by every Insert and Delete afterwards.
	//kdb:guarded-by mu
	indexes map[uint64]map[uint64][]int
	// readers counts the Scans and Selects still iterating what they
	// captured: raised under the lock, lowered after the last access.
	readers atomic.Int32
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
		present: make(map[uint64]int),
		indexes: make(map[uint64]map[uint64][]int),
	}, nil
}

// Arity returns the relation's arity.
func (r *Relation) Arity() int { return r.arity }

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
	h := HashTerms(t, AllColumns)
	r.mu.Lock()
	defer r.mu.Unlock()
	i, taken := r.present[h]
	if taken && SameTuple(r.tuples[i], t) {
		return false, nil
	}
	var key string
	if taken || len(r.overflow) > 0 {
		key = t.Key()
		if _, dup := r.overflow[key]; dup {
			return false, nil
		}
	}
	idx := len(r.tuples)
	r.tuples = append(r.tuples, t.Clone())
	if taken {
		if r.overflow == nil {
			r.overflow = make(map[string]int)
		}
		r.overflow[key] = idx
	} else {
		r.present[h] = idx
	}
	for mask, index := range r.indexes {
		k := HashTerms(t, mask)
		index[k] = append(index[k], idx)
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
	h := HashTerms(t, AllColumns)
	r.mu.Lock()
	defer r.mu.Unlock()
	idx := r.position(t, h)
	if idx < 0 {
		return false, nil
	}
	if p, ok := r.present[h]; ok && p == idx {
		delete(r.present, h)
	} else {
		delete(r.overflow, t.Key())
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
	if idx != last {
		next[idx] = moved
		hm := HashTerms(moved, AllColumns)
		if p, ok := r.present[hm]; ok && p == last {
			r.present[hm] = idx
		} else {
			r.overflow[moved.Key()] = idx
		}
	}
	r.tuples = next
	for mask, index := range r.indexes {
		k := HashTerms(gone, mask)
		if list := index[k]; len(list) == 1 {
			delete(index, k) // no empty list is left behind
		} else {
			index[k] = replacePosting(list, idx, list[len(list)-1], shared)[:len(list)-1]
		}
		if idx != last {
			k = HashTerms(moved, mask)
			index[k] = replacePosting(index[k], last, idx, shared)
		}
	}
	return true, nil
}

// position returns where t is stored, or -1; h is t's hash.
//
//kdb:rlocked mu
func (r *Relation) position(t Tuple, h uint64) int {
	if i, ok := r.present[h]; ok && SameTuple(r.tuples[i], t) {
		return i
	}
	if len(r.overflow) > 0 {
		if i, ok := r.overflow[t.Key()]; ok {
			return i
		}
	}
	return -1
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

// Contains reports whether the exact tuple is stored. A tuple of another
// arity never is.
func (r *Relation) Contains(t Tuple) bool {
	if len(t) != r.arity {
		return false
	}
	h := HashTerms(t, AllColumns)
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.position(t, h) >= 0
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

// SelectCounted calls fn for every tuple matching the pattern until fn
// returns false. The pattern has the relation's arity; constant positions
// must match exactly and variable positions match anything (repeated
// variables in the pattern must match equal values). When at least one
// position is bound, a hash index on that column set is used (built on
// first use). The probe is charged to c, an observability sink (nil
// counts nothing): threading the sink per call keeps concurrent queries'
// statistics independent even though they share the stored relation.
func (r *Relation) SelectCounted(pattern []term.Term, c *Counters, fn func(Tuple) bool) error {
	if len(pattern) != r.arity {
		return fmt.Errorf("storage: pattern arity %d, want %d", len(pattern), r.arity)
	}
	var mask uint64
	for i, p := range pattern {
		if p.IsConst() {
			mask |= 1 << uint(i)
		}
	}
	tuples, idxs := r.lookup(mask, pattern, c)
	defer r.done()
	if mask == 0 {
		if c != nil {
			c.AddProbe(true, int64(len(tuples)))
		}
		for _, t := range tuples {
			if Matches(pattern, t) && !fn(t) {
				return nil
			}
		}
		return nil
	}
	if c != nil {
		c.AddProbe(false, int64(len(idxs)))
	}
	for _, i := range idxs {
		if t := tuples[i]; Matches(pattern, t) && !fn(t) {
			return nil
		}
	}
	return nil
}

// lookup captures, for a reader (see snapshot), the tuple slice and the
// candidate positions for the mask/pattern pair (none for the empty mask,
// which scans) under one lock acquisition, so that both belong to one
// version. The index on the mask serves if it exists; otherwise a
// selective index on a subset of its columns (subsetIndex) does, its
// candidates a superset the pattern check narrows; otherwise the mask's
// index is built, and the build charged to c, the probe's sink.
func (r *Relation) lookup(mask uint64, pattern []term.Term, c *Counters) ([]Tuple, []int) {
	var h uint64
	if mask != 0 {
		h = HashTerms(pattern, mask)
	}
	r.mu.RLock()
	index, ok := r.indexes[mask]
	if !ok && mask != 0 {
		var sub uint64
		if sub, index = r.subsetIndex(mask); index != nil {
			ok, h = true, HashTerms(pattern, sub)
		}
	}
	if ok || mask == 0 {
		tuples, idxs := r.tuples, index[h]
		r.readers.Add(1)
		r.mu.RUnlock()
		return tuples, idxs
	}
	r.mu.RUnlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.readers.Add(1)
	index, ok = r.indexes[mask]
	if !ok {
		index = make(map[uint64][]int)
		for i, t := range r.tuples {
			k := HashTerms(t, mask)
			index[k] = append(index[k], i)
		}
		r.indexes[mask] = index
		if c != nil {
			c.IndexBuilds++
		}
	}
	return r.tuples, index[h]
}

// subsetIndex returns the built index SubsetChoice picks to serve a probe
// on mask's columns, and that index's mask, or a nil index when none may.
//
//kdb:rlocked mu
func (r *Relation) subsetIndex(mask uint64) (uint64, map[uint64][]int) {
	choice := SubsetChoice{Mask: mask}
	var index map[uint64][]int
	for m, idx := range r.indexes {
		if choice.Offer(m, len(idx)) {
			index = idx
		}
	}
	if !choice.Serves(len(r.tuples)) {
		return 0, nil
	}
	return choice.Best, index
}

// SubsetChoice picks the index that serves a probe whose bound columns
// have no index of their own: among the built indexes on a proper subset
// of the probe's columns, the one with the most keys, ties to the smaller
// mask, so that the choice does not depend on the order they are offered
// in — and only if it is selective, its relation holding at most four
// tuples per key. A stored relation and the evaluator's derived tables
// both choose through it, so they build and probe alike.
type SubsetChoice struct {
	Mask uint64 // the probe's bound columns
	Best uint64 // the mask of the index chosen so far
	Keys int    // that index's key count; 0 while none is chosen
}

// Offer considers the built index on mask m, holding keys keys, and
// reports whether it is now the one chosen.
func (s *SubsetChoice) Offer(m uint64, keys int) bool {
	if m == s.Mask || m&^s.Mask != 0 || keys == 0 || keys < s.Keys || keys == s.Keys && m > s.Best {
		return false
	}
	s.Best, s.Keys = m, keys
	return true
}

// Serves reports whether the index chosen may serve the probe over a
// relation of rows tuples.
func (s *SubsetChoice) Serves(rows int) bool { return s.Keys > 0 && rows <= 4*s.Keys }
