package eval

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"kdb/internal/storage"
	"kdb/internal/term"
)

// table is one derived relation of one evaluation: the extension a
// bottom-up component grows, or one of top-down's answer tables. It only
// grows, is used by one goroutine and dies with its statement, so it
// keeps none of storage.Relation's machinery for stored facts — no lock,
// no delete, no per-tuple allocation. What it shares with a stored
// relation is the identity of a tuple (storage.HashTerms, SameTuple and
// Matches) and the way a probe is served and counted.
//
// Rows are arity-wide runs of a chunked term slab, addressed by id in
// insertion order; the chunks never move, so a row handed out stays
// valid and unchanged for as long as anything holds it. A probe reads
// the row count when it starts and never sees a row inserted during its
// own enumeration.
type table struct {
	arity int
	n     int // rows
	// chunks hold the rows: chunk k holds firstChunkRows<<k rows until
	// that reaches lastChunkRows, and every later chunk lastChunkRows.
	chunks [][]term.Term
	// member is an open-addressing set of row ids plus one (0 is an
	// empty slot), probed linearly from a row's whole-tuple hash, at most
	// half full. Hashes are not kept: growing rehashes the rows.
	member []int32
	// indexes serve the bound-column masks probed so far, in build order.
	indexes []*tableIndex
}

const (
	firstChunkRows = 8
	lastChunkRows  = 1024
	// growingChunks is the number of chunks that double before the size
	// caps, and grownRows the rows they hold: 8 + 16 + … + 512.
	growingChunks = 7
	grownRows     = lastChunkRows - firstChunkRows
)

var errTableFull = errors.New("eval: a derived relation outgrew 2^31 rows")

// newTable returns an empty table of the given arity, which must be in
// [0, 63]: index masks use one bit per position.
func newTable(arity int) (*table, error) {
	if arity < 0 || arity > 63 {
		return nil, fmt.Errorf("eval: unsupported arity %d (must be 0..63)", arity)
	}
	return &table{arity: arity}, nil
}

// callTables recycles call tables: no answer or witness points into one,
// so a later statement's calls reuse a finished one's memory.
var callTables sync.Pool

// reset empties t, keeping its chunks and member set for its next use.
func (t *table) reset() *table {
	t.n, t.indexes = 0, nil
	clear(t.member)
	return t
}

// locate returns the chunk holding row id and the row's place in it.
func locate(id int) (chunk, off int) {
	if id < grownRows {
		chunk = bits.Len(uint(id+firstChunkRows)) - bits.Len(firstChunkRows)
		return chunk, id + firstChunkRows - firstChunkRows<<chunk
	}
	id -= grownRows
	return growingChunks + id/lastChunkRows, id % lastChunkRows
}

// row returns row id as a view of the slab, clipped to its arity so that
// appending to it copies instead of overwriting the next row.
func (t *table) row(id int) storage.Tuple {
	c, off := locate(id)
	lo := off * t.arity
	return t.chunks[c][lo : lo+t.arity : lo+t.arity]
}

// rows returns every row in insertion order, nil for none.
func (t *table) rows() []storage.Tuple {
	if t.n == 0 {
		return nil
	}
	out := make([]storage.Tuple, t.n)
	for id := range out {
		out[id] = t.row(id)
	}
	return out
}

// insert adds a copy of the ground tuple tp, reporting whether it was new.
func (t *table) insert(tp []term.Term) (bool, error) {
	if len(tp) != t.arity {
		return false, fmt.Errorf("eval: derived tuple arity %d, want %d", len(tp), t.arity)
	}
	if 2*(t.n+1) > len(t.member) {
		t.grow()
	}
	slot, found := t.find(tp)
	if found {
		return false, nil
	}
	if err := t.put(tp); err != nil {
		return false, err
	}
	t.member[slot] = int32(t.n)
	return true, nil
}

// put appends a copy of the ground tuple tp as a new row. A table filled
// by put alone keeps no member set: its caller knows the rows distinct.
func (t *table) put(tp []term.Term) error {
	if t.n == math.MaxInt32 {
		return errTableFull
	}
	id := t.n
	c, off := locate(id)
	if off == 0 && c == len(t.chunks) {
		rows := lastChunkRows
		if c < growingChunks {
			rows = firstChunkRows << c
		}
		t.chunks = append(t.chunks, make([]term.Term, rows*t.arity))
	}
	copy(t.chunks[c][off*t.arity:], tp)
	t.n++
	for _, ix := range t.indexes {
		ix.add(tp, id)
	}
	return nil
}

// find returns the member slot holding tp, or the empty slot where it
// would go. member must have an empty slot.
func (t *table) find(tp []term.Term) (int, bool) {
	m := uint64(len(t.member) - 1)
	for i := storage.HashTerms(tp, storage.AllColumns) & m; ; i = (i + 1) & m {
		id := t.member[i]
		if id == 0 {
			return int(i), false
		}
		if storage.SameTuple(t.row(int(id-1)), tp) {
			return int(i), true
		}
	}
}

// grow doubles member and rehashes every row into it.
func (t *table) grow() {
	member := make([]int32, max(16, 2*len(t.member)))
	m := uint64(len(member) - 1)
	for id := range t.n {
		i := storage.HashTerms(t.row(id), storage.AllColumns) & m
		for member[i] != 0 {
			i = (i + 1) & m
		}
		member[i] = int32(id + 1)
	}
	t.member = member
}

// contains reports whether tp is a row. A tuple of another arity never is.
func (t *table) contains(tp storage.Tuple) bool {
	if len(tp) != t.arity || t.n == 0 {
		return false
	}
	_, found := t.find(tp)
	return found
}

// scan calls fn for every row present when it starts, in insertion
// order, until fn returns false.
func (t *table) scan(fn func(storage.Tuple) bool) {
	for id, n := 0, t.n; id < n; id++ {
		if !fn(t.row(id)) {
			return
		}
	}
}

// selectRange calls fn for every row at ids in [from, to) that matches
// pattern, in insertion order, until fn returns false; to is clamped to
// the rows present when it starts. It is served and charged to c (nil:
// not counted) as storage.Relation.SelectCounted serves and charges a
// probe: with no bound position it scans, and its candidates are the
// range; otherwise the mask's index serves, or a selective index on a
// subset of its columns, or the mask's index built now, and its
// candidates are the range's rows under the pattern's key.
func (t *table) selectRange(pattern []term.Term, from, to int, c *storage.Counters, fn func(storage.Tuple) bool) {
	to = min(to, t.n)
	from = min(from, to)
	var mask uint64
	for i, p := range pattern {
		if p.IsConst() {
			mask |= 1 << uint(i)
		}
	}
	if mask == 0 {
		if c != nil {
			c.AddProbe(true, int64(to-from))
		}
		for id := from; id < to; id++ {
			if r := t.row(id); storage.Matches(pattern, r) && !fn(r) {
				return
			}
		}
		return
	}
	ix, h := t.index(mask, pattern, c)
	id, n := ix.span(h, from, to, from == 0 && to == t.n)
	if c != nil {
		c.AddProbe(false, int64(n))
	}
	for ; n > 0; n-- {
		if r := t.row(int(id)); storage.Matches(pattern, r) && !fn(r) {
			return
		}
		id = ix.links[id].next
	}
}

// index returns the index that serves a probe binding mask's columns of
// pattern, and the hash of the pattern's key in it: the mask's own; else
// the index on a subset of its columns that storage.SubsetChoice picks,
// as a stored relation would; else the mask's own, built now and charged
// to c.
func (t *table) index(mask uint64, pattern []term.Term, c *storage.Counters) (*tableIndex, uint64) {
	choice := storage.SubsetChoice{Mask: mask}
	var sub *tableIndex
	for _, ix := range t.indexes {
		if ix.mask == mask {
			return ix, storage.HashTerms(pattern, mask)
		}
		if choice.Offer(ix.mask, ix.nkeys) {
			sub = ix
		}
	}
	if choice.Serves(t.n) {
		return sub, storage.HashTerms(pattern, sub.mask)
	}
	ix := &tableIndex{mask: mask, keys: make([]tableKey, 8), links: make([]tableLink, 0, t.n)}
	for id := range t.n {
		ix.add(t.row(id), id)
	}
	t.indexes = append(t.indexes, ix)
	if c != nil {
		c.IndexBuilds++
	}
	return ix, storage.HashTerms(pattern, mask)
}

// tableIndex is a hash index on one bound-column mask. Each key is the
// hash of a row's bound columns, as storage.Relation keys its indexes: a
// colliding key only adds candidates, which the pattern check removes.
// A key's rows are a list threaded through links in id order.
type tableIndex struct {
	mask uint64
	// keys is open-addressing by hash, at most half full; a zero count is
	// an empty slot.
	keys  []tableKey
	nkeys int
	// links are, per row id, the neighbouring rows under the same key.
	links []tableLink
}

type tableKey struct {
	hash              uint64
	head, tail, count int32
}

// tableLink is a row's place in its key's list: the rows before and
// after it, -1 at either end.
type tableLink struct{ prev, next int32 }

// slot returns the keys slot holding hash h, or the empty one where it
// would go.
func (ix *tableIndex) slot(h uint64) int {
	m := uint64(len(ix.keys) - 1)
	i := h & m
	for ix.keys[i].count != 0 && ix.keys[i].hash != h {
		i = (i + 1) & m
	}
	return int(i)
}

// add appends row id, whose terms are tp, to the list of its key. Rows
// are added in id order.
func (ix *tableIndex) add(tp []term.Term, id int) {
	if 2*(ix.nkeys+1) > len(ix.keys) {
		ix.grow()
	}
	h := storage.HashTerms(tp, ix.mask)
	k := &ix.keys[ix.slot(h)]
	prev := int32(-1)
	if k.count == 0 {
		k.hash, k.head = h, int32(id)
		ix.nkeys++
	} else {
		prev = k.tail
		ix.links[prev].next = int32(id)
	}
	k.tail = int32(id)
	k.count++
	ix.links = append(ix.links, tableLink{prev: prev, next: -1})
}

// grow doubles the key table.
func (ix *tableIndex) grow() {
	old := ix.keys
	ix.keys = make([]tableKey, 2*len(old))
	for _, k := range old {
		if k.count != 0 {
			ix.keys[ix.slot(k.hash)] = k
		}
	}
}

// span returns the first row under key h among ids [from, to) and how
// many there are: the whole list when all is set, otherwise found by
// walking back from the key's tail.
func (ix *tableIndex) span(h uint64, from, to int, all bool) (first int32, n int) {
	k := ix.keys[ix.slot(h)]
	if k.count == 0 {
		return -1, 0
	}
	if all {
		return k.head, int(k.count)
	}
	first = -1
	for id := k.tail; id >= int32(from); id = ix.links[id].prev {
		if id < int32(to) {
			first = id
			n++
		}
	}
	return first, n
}
