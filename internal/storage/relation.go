// Package storage implements the extensional database (the paper's set P
// of stored predicates): per-predicate relations with hash indexes on
// bound-column patterns, a store aggregating them, and optional
// durability via snapshot files plus a write-ahead log with CRC-checked
// records and crash recovery.
//
// A relation identifies a tuple by a 64-bit hash of its terms and never
// by the hash alone: every hit is confirmed against the stored tuple, and
// distinct tuples that share a hash are all kept. Hashes are seeded per
// process and never written to disk; the snapshot and the log encode
// terms as codec.go does. Positions in a relation stay in insertion order
// until its first Delete, which is what a window (SelectWindow) relies
// on: a window over a relation that has had a delete is an error.
package storage

import (
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"slices"
	"sort"
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
// statement passes it to every SelectCounted and SelectWindow it issues,
// and reads it on its own goroutine, so the counts are plain integers.
type Counters struct {
	// Probes counts Select calls served by the relation.
	Probes int64
	// Candidates counts candidate tuples examined while serving probes
	// (after index narrowing, before the final pattern check).
	Candidates int64
	// IndexBuilds counts hash indexes built on first use of a bound-column
	// mask. A mask is served without a build while an index on a subset
	// of its columns is selective (see Relation.lookup).
	IndexBuilds int64
	// FullScans counts the subset of Probes served without an index (no
	// bound position): the whole extension was enumerated. Index-served
	// probes are Probes - FullScans.
	FullScans int64
}

// addProbe charges one probe with its candidate count (and, when the
// probe had no usable index, a full scan) to the sink.
func (c *Counters) addProbe(fullScan bool, candidates int64) {
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
// Windows (SelectWindow) are served only by a relation that has never
// had a delete.
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
	// the bound column values → indices of the tuples with that hash, in
	// ascending order until the first Delete, never an empty list.
	// Indexes are built on first use for a mask and maintained by every
	// Insert and Delete afterwards.
	//kdb:guarded-by mu
	indexes map[uint64]map[uint64][]int
	// deleted is set by the first Delete: positions no longer follow
	// insertion order, so no window can be served.
	//kdb:guarded-by mu
	deleted bool
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
	h := hashTerms(t, allColumns)
	r.mu.Lock()
	defer r.mu.Unlock()
	i, taken := r.present[h]
	if taken && sameTuple(r.tuples[i], t) {
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
		k := hashTerms(t, mask)
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
	h := hashTerms(t, allColumns)
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
	r.deleted = true
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
		hm := hashTerms(moved, allColumns)
		if p, ok := r.present[hm]; ok && p == last {
			r.present[hm] = idx
		} else {
			r.overflow[moved.Key()] = idx
		}
	}
	r.tuples = next
	for mask, index := range r.indexes {
		k := hashTerms(gone, mask)
		if list := index[k]; len(list) == 1 {
			delete(index, k) // no empty list is left behind
		} else {
			index[k] = replacePosting(list, idx, list[len(list)-1], shared)[:len(list)-1]
		}
		if idx != last {
			k = hashTerms(moved, mask)
			index[k] = replacePosting(index[k], last, idx, shared)
		}
	}
	return true, nil
}

// position returns where t is stored, or -1; h is t's hash.
//
//kdb:rlocked mu
func (r *Relation) position(t Tuple, h uint64) int {
	if i, ok := r.present[h]; ok && sameTuple(r.tuples[i], t) {
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
	h := hashTerms(t, allColumns)
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

// Select calls fn for every tuple matching the pattern until fn returns
// false. The pattern has the relation's arity; constant positions must
// match exactly and variable positions match anything (repeated
// variables in the pattern must match equal values). When at least one
// position is bound, a hash index on that column set is used (built on
// first use).
func (r *Relation) Select(pattern []term.Term, fn func(Tuple) bool) error {
	return r.SelectCounted(pattern, nil, fn)
}

// SelectCounted is Select with an observability sink for this probe; a
// nil sink counts nothing. Threading the sink per call keeps concurrent
// queries' statistics independent even though they share the stored
// relation.
func (r *Relation) SelectCounted(pattern []term.Term, c *Counters, fn func(Tuple) bool) error {
	return r.selectRange(pattern, false, 0, 0, c, fn)
}

// SelectWindow is SelectCounted restricted to the tuples at positions
// from (inclusive) to to (exclusive), clamped to the relation's length:
// the tuples inserted between two moments at which Len was read. It uses
// the same index as SelectCounted, narrowed to the window by binary
// search, and is counted the same way, with only the window's tuples as
// candidates. It serves relations that only grow: once the relation has
// had a Delete it returns an error.
func (r *Relation) SelectWindow(pattern []term.Term, from, to int, c *Counters, fn func(Tuple) bool) error {
	if from < 0 || to < from {
		return fmt.Errorf("storage: window [%d, %d) is not a range of positions", from, to)
	}
	return r.selectRange(pattern, true, from, to, c, fn)
}

// selectRange serves SelectCounted and, with window set, SelectWindow
// over [from, to).
func (r *Relation) selectRange(pattern []term.Term, window bool, from, to int, c *Counters, fn func(Tuple) bool) error {
	if len(pattern) != r.arity {
		return fmt.Errorf("storage: pattern arity %d, want %d", len(pattern), r.arity)
	}
	var mask uint64
	for i, p := range pattern {
		if p.IsConst() {
			mask |= 1 << uint(i)
		}
	}
	tuples, idxs, deleted := r.lookup(mask, pattern, c)
	defer r.done()
	if window {
		if deleted {
			return errors.New("storage: window over a relation that has had a delete")
		}
		to = min(to, len(tuples))
		from = min(from, to)
		if mask == 0 {
			tuples = tuples[from:to]
		} else {
			idxs = idxs[sort.SearchInts(idxs, from):sort.SearchInts(idxs, to)]
		}
	}
	if mask == 0 {
		if c != nil {
			c.addProbe(true, int64(len(tuples)))
		}
		for _, t := range tuples {
			if matches(pattern, t) && !fn(t) {
				return nil
			}
		}
		return nil
	}
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

// lookup captures, for a reader (see snapshot), the tuple slice, the
// candidate positions for the mask/pattern pair (none for the empty
// mask, which scans) and whether the relation has had a delete, under one
// lock acquisition, so that all three belong to one version. The index on
// the mask serves if it exists; otherwise a selective index on a subset
// of its columns (subsetIndex) does, its candidates a superset the
// pattern check narrows; otherwise the mask's index is built, and the
// build charged to c, the probe's sink.
func (r *Relation) lookup(mask uint64, pattern []term.Term, c *Counters) ([]Tuple, []int, bool) {
	var h uint64
	if mask != 0 {
		h = hashTerms(pattern, mask)
	}
	r.mu.RLock()
	index, ok := r.indexes[mask]
	if !ok && mask != 0 {
		var sub uint64
		if sub, index = r.subsetIndex(mask); index != nil {
			ok, h = true, hashTerms(pattern, sub)
		}
	}
	if ok || mask == 0 {
		tuples, idxs, deleted := r.tuples, index[h], r.deleted
		r.readers.Add(1)
		r.mu.RUnlock()
		return tuples, idxs, deleted
	}
	r.mu.RUnlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.readers.Add(1)
	index, ok = r.indexes[mask]
	if !ok {
		index = make(map[uint64][]int)
		for i, t := range r.tuples {
			k := hashTerms(t, mask)
			index[k] = append(index[k], i)
		}
		r.indexes[mask] = index
		if c != nil {
			c.IndexBuilds++
		}
	}
	return r.tuples, index[h], r.deleted
}

// subsetIndex returns the built index on a proper subset of mask's
// columns with the most keys, and that subset, if the index is selective:
// the relation holds at most four tuples per key. Ties go to the smaller
// mask, so the choice does not depend on map order. It returns a nil
// index when there is none.
//
//kdb:rlocked mu
func (r *Relation) subsetIndex(mask uint64) (uint64, map[uint64][]int) {
	var best uint64
	var index map[uint64][]int
	for m, idx := range r.indexes {
		if m == mask || m&^mask != 0 {
			continue
		}
		if len(idx) > len(index) || len(idx) == len(index) && index != nil && m < best {
			best, index = m, idx
		}
	}
	if index == nil || len(r.tuples) > 4*len(index) {
		return 0, nil
	}
	return best, index
}

// matches reports whether the tuple agrees with the pattern's constants
// and with repeated pattern variables: a variable's position must hold
// what the variable's earlier position holds.
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

// allColumns is the mask of a whole-tuple hash.
const allColumns = ^uint64(0)

// hashSeed keys every hash a relation computes. It is drawn once per
// process: no hash outlives the process or leaves it.
var hashSeed = maphash.MakeSeed()

// collideHook, when a test sets it, replaces every hash with its image,
// so that a constant or two-valued hash drives the collision paths. It is
// nil outside tests.
var collideHook func(uint64) uint64

// hashTerms hashes the masked columns of t by the identity sameTuple
// checks: kind, then the name, numbers by bit pattern. Each term is
// hashed on its own and folded into the running hash, so that the order
// of the columns matters.
func hashTerms(t []term.Term, mask uint64) uint64 {
	var h uint64
	for i, x := range t {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		var v uint64
		if x.Kind() == term.KindNumber {
			v = maphash.Comparable(hashSeed, math.Float64bits(x.Float()))
		} else {
			v = maphash.String(hashSeed, x.Name())
		}
		h = fold(h ^ v + uint64(x.Kind()))
	}
	if collideHook != nil {
		return collideHook(h)
	}
	return h
}

// fold is the finalizer of SplitMix64: a bijection that spreads every
// input bit over the whole word.
func fold(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

// sameTuple reports whether a and b are one fact: the identity the codec
// key encodes, so a number equals only its own bit pattern.
func sameTuple(a, b []term.Term) bool {
	if len(a) != len(b) {
		return false
	}
	for i, x := range a {
		y := b[i]
		if x.Kind() != y.Kind() {
			return false
		}
		if x.Kind() == term.KindNumber {
			if math.Float64bits(x.Float()) != math.Float64bits(y.Float()) {
				return false
			}
		} else if x.Name() != y.Name() {
			return false
		}
	}
	return true
}
