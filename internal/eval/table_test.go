package eval

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"kdb/internal/storage"
	"kdb/internal/term"
)

// The derived table is judged against storage.Relation, which serves the
// same probes over the same tuples: a table must yield the tuples a
// relation yields, in the same order, and charge the same probes,
// candidates, index builds and full scans. A plain Go map is the model
// of what a relation holds.

// tableHashes are the hashes the table tests run under: the real one,
// then forced collisions — every tuple, every index key and every
// symbol's or string's word on one value, or on one of two.
var tableHashes = []struct {
	name string
	hook func(uint64) uint64
}{
	{"real", nil},
	{"constant", func(uint64) uint64 { return 7 }},
	{"two-valued", func(h uint64) uint64 { return h & 1 }},
}

// forceTableHash replaces every hash storage computes, the table's
// included, and the word of every symbol and string built from now on,
// with hook until the test ends.
func forceTableHash(t *testing.T, hook func(uint64) uint64) {
	t.Cleanup(func() { storage.CollideHook, term.CollideHook = nil, nil })
	storage.CollideHook, term.CollideHook = hook, hook
}

func mustTable(t testing.TB, arity int) *table {
	t.Helper()
	tb, err := newTable(arity)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func mustStoredRelation(t testing.TB, arity int) *storage.Relation {
	t.Helper()
	r, err := storage.NewRelation(arity)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// checkTableInvariants verifies that the rows, the member set and every
// built index describe the same extension: each row is found in member
// at its own slot and member holds nothing else, and each index lists
// every row exactly once, under the hash of its bound columns, in id
// order, with head, tail, count and the prev links agreeing.
func checkTableInvariants(t *testing.T, tb *table) {
	t.Helper()
	members := 0
	for slot, id := range tb.member {
		if id == 0 {
			continue
		}
		members++
		if got, found := tb.find(tb.row(int(id - 1))); !found || got != slot {
			t.Fatalf("row %d (%v) is member slot %d, found at %d (%v)", id-1, tb.row(int(id-1)), slot, got, found)
		}
	}
	if members != tb.n || 2*tb.n > len(tb.member) && tb.n > 0 {
		t.Fatalf("member holds %d of %d rows in %d slots", members, tb.n, len(tb.member))
	}
	for _, ix := range tb.indexes {
		if len(ix.links) != tb.n {
			t.Fatalf("index %b links %d rows of %d", ix.mask, len(ix.links), tb.n)
		}
		keys, seen := 0, 0
		for _, k := range ix.keys {
			if k.count == 0 {
				continue
			}
			keys++
			id, prev := k.head, int32(-1)
			for range k.count {
				switch {
				case id < 0 || int(id) >= tb.n:
					t.Fatalf("index %b: key %x lists row %d of %d", ix.mask, k.hash, id, tb.n)
				case id <= prev:
					t.Fatalf("index %b: key %x lists row %d after %d", ix.mask, k.hash, id, prev)
				case ix.links[id].prev != prev:
					t.Fatalf("index %b: row %d links back to %d, follows %d", ix.mask, id, ix.links[id].prev, prev)
				case storage.HashTerms(tb.row(int(id)), ix.mask) != k.hash:
					t.Fatalf("index %b: row %d (%v) listed under %x", ix.mask, id, tb.row(int(id)), k.hash)
				}
				seen++
				prev, id = id, ix.links[id].next
			}
			if id != -1 || prev != k.tail {
				t.Fatalf("index %b: key %x ends at %d, then %d; its tail is %d", ix.mask, k.hash, prev, id, k.tail)
			}
		}
		if keys != ix.nkeys || seen != tb.n {
			t.Fatalf("index %b: %d keys (counted %d) list %d rows of %d", ix.mask, keys, ix.nkeys, seen, tb.n)
		}
	}
}

// tableKeys runs one probe of rows [from, to) and returns the keys of what
// it yielded, in order, failing on a row that does not match.
func tableKeys(t *testing.T, tb *table, pattern []term.Term, from, to int, c *storage.Counters) []string {
	t.Helper()
	var got []string
	tb.selectRange(pattern, from, to, c, func(tp storage.Tuple) bool {
		if !storage.Matches(pattern, tp) {
			t.Fatalf("probe %v yielded %v", pattern, tp)
		}
		got = append(got, tp.Key())
		return true
	})
	return got
}

// relationKeys is the reference for tableKeys: what a stored relation's
// probe yields, in order, less the tuples whose insertion position is
// outside [from, to).
func relationKeys(t *testing.T, r *storage.Relation, pattern []term.Term, from, to int, c *storage.Counters) []string {
	t.Helper()
	pos := map[string]int{}
	r.Scan(func(tp storage.Tuple) bool {
		pos[tp.Key()] = len(pos)
		return true
	})
	var want []string
	if err := r.SelectCounted(pattern, c, func(tp storage.Tuple) bool {
		if p := pos[tp.Key()]; p >= from && p < to {
			want = append(want, tp.Key())
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return want
}

// randPattern binds the columns of mask to tp's values and fills the rest
// from two variable names, so that most patterns repeat one.
func randPattern(rng *rand.Rand, tp storage.Tuple, mask int) []term.Term {
	pattern := make([]term.Term, len(tp))
	for i := range pattern {
		if pattern[i] = tp[i]; mask&(1<<i) == 0 {
			pattern[i] = term.Var(fmt.Sprintf("X%d", rng.Intn(2)))
		}
	}
	return pattern
}

// TestTableModel drives seeded random inserts, probes and window probes
// against a stored relation fed the same tuples and a plain Go map,
// probing every bound-column mask with repeated-variable patterns, and
// checks the table's internal agreement after every step.
func TestTableModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runTableModel(t, seed, tableNarrow) })
	}
}

// tableNarrow draws every column from four values, so duplicates, shared
// index keys and hits on repeated-variable patterns are all common.
// tableWide gives the first column a hundred: an index on the first
// column alone is selective, so probes binding it and more are served
// through it.
var (
	tableNarrow = [3]int{4, 4, 4}
	tableWide   = [3]int{100, 3, 3}
)

// runTableModel is one seeded run of TestTableModel over the column
// domains given, and returns how many probes an index on a subset of
// their bound columns served.
func runTableModel(t *testing.T, seed int64, domain [3]int) (subsetProbes int) {
	const arity = 3
	rng := rand.New(rand.NewSource(seed))
	tb, rel := mustTable(t, arity), mustStoredRelation(t, arity)
	model := map[string]storage.Tuple{}
	randTuple := func() storage.Tuple {
		tp := make(storage.Tuple, arity)
		for i := range tp {
			tp[i] = term.Sym(fmt.Sprintf("v%d", rng.Intn(domain[i])))
		}
		return tp
	}
	for step := 0; step < 600; step++ {
		tp := randTuple()
		_, had := model[tp.Key()]
		switch n := rng.Intn(10); {
		case n < 5:
			fresh, err := tb.insert(tp)
			if err != nil || fresh == had {
				t.Fatalf("step %d: insert(%v) = %v, %v; model had it: %v", step, tp, fresh, err, had)
			}
			rel.Insert(tp)
			model[tp.Key()] = tp
		default:
			mask := rng.Intn(1 << arity)
			pattern := randPattern(rng, tp, mask)
			from, to := 0, tb.n
			if n >= 8 { // a window, at times reaching one past the end
				from = rng.Intn(to + 1)
				to = from + rng.Intn(to-from+2)
			}
			exact := slices.ContainsFunc(tb.indexes, func(ix *tableIndex) bool { return ix.mask == uint64(mask) })
			var got, want storage.Counters
			gotKeys := tableKeys(t, tb, pattern, from, to, &got)
			wantKeys := relationKeys(t, rel, pattern, from, to, &want)
			if !slices.Equal(gotKeys, wantKeys) {
				t.Fatalf("step %d: probe %v over [%d, %d) = %q, the stored relation says %q", step, pattern, from, to, gotKeys, wantKeys)
			}
			if from == 0 && to == tb.n {
				if got != want {
					t.Fatalf("step %d: probe %v charged %+v, the stored relation %+v", step, pattern, got, want)
				}
				if model := modelTableKeys(model, pattern); !slices.Equal(sorted(gotKeys), model) {
					t.Fatalf("step %d: probe %v = %q, model says %q", step, pattern, gotKeys, model)
				}
			} else if got.Probes != 1 || got.Candidates > int64(max(0, min(to, tb.n)-from)) || got.IndexBuilds != want.IndexBuilds {
				t.Fatalf("step %d: window [%d, %d) of %d charged %+v (the relation built %d indexes)", step, from, to, tb.n, got, want.IndexBuilds)
			}
			if mask != 0 && !exact && got.IndexBuilds == 0 {
				subsetProbes++
			}
		}
		if tb.n != len(model) {
			t.Fatalf("step %d: len %d; model has %d", step, tb.n, len(model))
		}
		if _, has := model[tp.Key()]; tb.contains(tp) != has {
			t.Fatalf("step %d: contains(%v) = %v; model has it: %v", step, tp, !has, has)
		}
		checkTableInvariants(t, tb)
	}
	return subsetProbes
}

func sorted(keys []string) []string {
	out := slices.Clone(keys)
	sort.Strings(out)
	return out
}

// modelTableKeys is the model's answer to a probe: the sorted keys of the
// tuples that match.
func modelTableKeys(model map[string]storage.Tuple, pattern []term.Term) []string {
	var want []string
	for k, tp := range model {
		if storage.Matches(pattern, tp) {
			want = append(want, k)
		}
	}
	sort.Strings(want)
	return want
}

// TestTableModelSubsetIndexes is TestTableModel over a wide first column,
// under the real hash and forced collisions: probes are served through
// selective indexes on a subset of their bound columns (and, with every
// hash colliding, through none, since one key is never selective), as
// the stored relation serves them.
func TestTableModelSubsetIndexes(t *testing.T) {
	for _, h := range tableHashes {
		t.Run("hash="+h.name, func(t *testing.T) {
			forceTableHash(t, h.hook)
			served := 0
			for seed := int64(1); seed <= 6; seed++ {
				served += runTableModel(t, seed, tableWide)
			}
			if h.hook == nil && served == 0 {
				t.Fatal("no probe was served through a subset index")
			}
		})
	}
}

// TestTableModelUnderCollisions is TestTableModel with a constant and a
// two-valued hash: distinct tuples sharing a hash are all stored, found
// and indexed, by the exact comparison.
func TestTableModelUnderCollisions(t *testing.T) {
	for _, h := range tableHashes[1:] {
		t.Run("hash="+h.name, func(t *testing.T) {
			forceTableHash(t, h.hook)
			for seed := int64(1); seed <= 4; seed++ {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runTableModel(t, seed, tableNarrow) })
			}
		})
	}
}

// TestTableIdentityIsTheCodecs: a table's identity is the stored
// relation's, the codec key's, whatever the hash: 0 and -0 are two facts,
// a NaN is one fact with itself, a symbol and a string of the same text
// are two, and a tuple of the wrong arity is never contained.
func TestTableIdentityIsTheCodecs(t *testing.T) {
	for _, h := range tableHashes {
		t.Run("hash="+h.name, func(t *testing.T) {
			forceTableHash(t, h.hook)
			tb := mustTable(t, 2)
			zero, negZero, nan := term.Num(0), term.Num(math.Copysign(0, -1)), term.Num(math.NaN())
			facts := []storage.Tuple{
				{term.Sym("a"), zero}, {term.Sym("a"), negZero}, {term.Sym("a"), nan},
				{term.Sym("a"), term.Str("a")}, {term.Sym("a"), term.Sym("a")},
			}
			for _, tp := range facts {
				if fresh, err := tb.insert(tp); err != nil || !fresh {
					t.Fatalf("insert(%v) = %v, %v; want a new fact", tp, fresh, err)
				}
			}
			for _, tp := range facts {
				if fresh, _ := tb.insert(tp.Clone()); fresh {
					t.Errorf("insert(%v) again stored a second copy", tp)
				}
				if !tb.contains(tp.Clone()) {
					t.Errorf("contains(%v) = false", tp)
				}
			}
			if tb.n != len(facts) {
				t.Fatalf("len = %d, want %d", tb.n, len(facts))
			}
			for _, tp := range []storage.Tuple{{term.Sym("a")}, {term.Sym("a"), zero, zero}, nil} {
				if tb.contains(tp) {
					t.Errorf("contains(%v) on an arity-2 table = true", tp)
				}
				if _, err := tb.insert(tp); err == nil {
					t.Errorf("insert(%v) into an arity-2 table succeeded", tp)
				}
			}
			checkTableInvariants(t, tb)
		})
	}
}

// TestTableSelectWindow: on random tables, and on random patterns over
// every mask with repeated variables, a window yields exactly what the
// whole table's probe yields at ids in [from, to), in the same order,
// whether the index was built before or after the window's rows arrived,
// and under forced collisions; its candidates are at most the window's
// rows.
func TestTableSelectWindow(t *testing.T) {
	const arity = 3
	for _, h := range tableHashes {
		t.Run("hash="+h.name, func(t *testing.T) {
			forceTableHash(t, h.hook)
			for seed := int64(1); seed <= 6; seed++ {
				rng := rand.New(rand.NewSource(seed))
				tb := mustTable(t, arity)
				randTuple := func() storage.Tuple {
					tp := make(storage.Tuple, arity)
					for i := range tp {
						tp[i] = term.Sym(fmt.Sprintf("v%d", rng.Intn(4)))
					}
					return tp
				}
				for step := 0; step < 300; step++ {
					if rng.Intn(3) > 0 {
						if _, err := tb.insert(randTuple()); err != nil {
							t.Fatal(err)
						}
						continue
					}
					pattern := randPattern(rng, randTuple(), rng.Intn(1<<arity))
					n := tb.n
					from := rng.Intn(n + 1)
					to := from + rng.Intn(n-from+2) // at times one past the end
					c := &storage.Counters{}
					got := tableKeys(t, tb, pattern, from, to, c)
					var want []string
					for id := from; id < min(to, n); id++ {
						if r := tb.row(id); storage.Matches(pattern, r) {
							want = append(want, r.Key())
						}
					}
					if !slices.Equal(got, want) {
						t.Fatalf("seed %d step %d: window %v over [%d, %d) = %q, want %q", seed, step, pattern, from, to, got, want)
					}
					if c.Probes != 1 || c.Candidates > int64(min(to, n)-from) {
						t.Fatalf("seed %d step %d: window [%d, %d) charged %d probes, %d candidates", seed, step, from, to, c.Probes, c.Candidates)
					}
				}
				checkTableInvariants(t, tb)
			}
		})
	}
}

// TestTableSubsetIndexWindows: with an index built on the first column,
// window probes binding it and more are served through that index
// without building another, and yield exactly the window's rows that
// match, in insertion order; the candidates are the subset bucket's rows
// inside the window.
func TestTableSubsetIndexWindows(t *testing.T) {
	const arity = 3
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb := mustTable(t, arity)
		randTuple := func() storage.Tuple {
			tp := make(storage.Tuple, arity)
			for i := range tp {
				tp[i] = term.Sym(fmt.Sprintf("v%d", rng.Intn(tableWide[i])))
			}
			return tp
		}
		for tb.n < 128 {
			if _, err := tb.insert(randTuple()); err != nil {
				t.Fatal(err)
			}
		}
		tb.selectRange([]term.Term{term.Sym("v0"), term.Var("Y"), term.Var("Z")}, 0, tb.n, nil, func(storage.Tuple) bool { return true })
		for step := 0; step < 200; step++ {
			if _, err := tb.insert(randTuple()); err != nil {
				t.Fatal(err)
			}
			tp := randTuple()
			mask := 1 | rng.Intn(1<<arity)
			pattern := randPattern(rng, tp, mask)
			n := tb.n
			from := rng.Intn(n + 1)
			to := from + rng.Intn(n-from+1)
			c := &storage.Counters{}
			got := tableKeys(t, tb, pattern, from, to, c)
			var want []string
			bucket := 0
			for id := range n {
				r := tb.row(id)
				if id >= from && id < to && storage.Matches(pattern, r) {
					want = append(want, r.Key())
				}
				if id >= from && id < to && r[0] == tp[0] {
					bucket++
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: window %v over [%d, %d) = %q, want %q", seed, step, pattern, from, to, got, want)
			}
			if mask == 1 {
				continue
			}
			if c.IndexBuilds != 0 || c.Candidates != int64(bucket) {
				t.Fatalf("seed %d step %d: window probe %v built %d indexes over %d candidates; the first column's bucket holds %d in the window",
					seed, step, pattern, c.IndexBuilds, c.Candidates, bucket)
			}
		}
		checkTableInvariants(t, tb)
		if len(tb.indexes) != 1 {
			t.Errorf("seed %d: %d indexes built, want the first column's alone", seed, len(tb.indexes))
		}
	}
}

// TestTableSubsetIndexSelectivity pins when an index on a subset of a
// probe's columns serves it, as for a stored relation: a selective one
// with the most keys does; a table holding more than four rows per key of
// every subset index builds the probe's own index, whatever its size.
func TestTableSubsetIndexSelectivity(t *testing.T) {
	x, y, z := term.Var("X"), term.Var("Y"), term.Var("Z")
	for _, tc := range []struct {
		name       string
		n, a, b    int
		builds     int64 // of the probe binding columns 1 and 2
		candidates int64
	}{
		{"selective first column", 200, 100, 3, 0, 2},
		{"four per key", 200, 50, 3, 0, 4},
		{"five per key", 200, 40, 3, 1, 2},
		{"low selectivity", 200, 2, 3, 1, 34},
		{"small table", 8, 8, 2, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb, rel := mustTable(t, 3), mustStoredRelation(t, 3)
			for i := 0; i < tc.n; i++ {
				tp := storage.Tuple{term.Num(float64(i % tc.a)), term.Num(float64(i % tc.b)), term.Num(float64(i))}
				tb.insert(tp)
				rel.Insert(tp)
			}
			var c, want storage.Counters
			for _, pattern := range [][]term.Term{{term.Num(0), y, z}, {x, term.Num(0), z}, {term.Num(0), term.Num(0), z}} {
				c, want = storage.Counters{}, storage.Counters{}
				tableKeys(t, tb, pattern, 0, tb.n, &c)
				relationKeys(t, rel, pattern, 0, tc.n, &want)
				if c != want {
					t.Fatalf("probe %v charged %+v, the stored relation %+v", pattern, c, want)
				}
			}
			if c.IndexBuilds != tc.builds || c.Candidates != tc.candidates {
				t.Errorf("probe (0, 0, Z): %d builds, %d candidates; want %d, %d", c.IndexBuilds, c.Candidates, tc.builds, tc.candidates)
			}
			checkTableInvariants(t, tb)
		})
	}
}

// TestTableProbeIgnoresItsOwnInserts: a probe, a window and a scan
// enumerate the rows present when they start. Rows the callback inserts
// meanwhile, matching ones included, are seen by the next probe only.
func TestTableProbeIgnoresItsOwnInserts(t *testing.T) {
	x, y := term.Var("X"), term.Var("Y")
	k := term.Sym("k")
	for _, tc := range []struct {
		name     string
		pattern  []term.Term
		from, to int
		want     int
	}{
		{"indexed", []term.Term{k, y}, 0, 10, 10},
		{"scan", []term.Term{x, y}, 0, 10, 10},
		{"indexed window", []term.Term{k, y}, 3, 10, 7},
		{"scan window", []term.Term{x, y}, 3, 10, 7},
		{"window past the end", []term.Term{k, y}, 3, 1 << 30, 7},
		{"scan", nil, 0, 10, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb := mustTable(t, 2)
			for i := range 10 {
				tb.insert(storage.Tuple{k, term.Num(float64(i))})
			}
			if tc.pattern != nil {
				tb.selectRange(tc.pattern, 0, tb.n, nil, func(storage.Tuple) bool { return true }) // builds the index first
			}
			seen := 0
			each := func(tp storage.Tuple) bool {
				if n := tp[1].Float(); n >= 10 {
					t.Fatalf("the probe saw %v, inserted during its own enumeration", tp)
				}
				seen++
				tb.insert(storage.Tuple{k, term.Num(float64(100 + seen))})
				return true
			}
			if tc.pattern == nil {
				tb.scan(each)
			} else {
				tb.selectRange(tc.pattern, tc.from, tc.to, nil, each)
			}
			if seen != tc.want || tb.n != 10+tc.want {
				t.Fatalf("saw %d rows, table holds %d; want %d and %d", seen, tb.n, tc.want, 10+tc.want)
			}
			checkTableInvariants(t, tb)
		})
	}
}

// TestTableRowsAreClipped: a row is a view of the slab clipped to its
// arity, so appending to one never writes into the next, whether it came
// from rows, a probe or a scan.
func TestTableRowsAreClipped(t *testing.T) {
	tb := mustTable(t, 2)
	for i := range 20 {
		tb.insert(storage.Tuple{term.Sym("a"), term.Num(float64(i))})
	}
	rows := tb.rows()
	var probed []storage.Tuple
	tb.selectRange([]term.Term{term.Sym("a"), term.Var("Y")}, 0, tb.n, nil, func(tp storage.Tuple) bool {
		probed = append(probed, tp)
		return true
	})
	for _, got := range [][]storage.Tuple{rows, probed} {
		for i := range len(got) - 1 {
			_ = append(got[i], term.Sym("clobber"))
			if want := term.Num(float64(i + 1)); got[i+1][0] != term.Sym("a") || got[i+1][1] != want {
				t.Fatalf("appending to row %d changed row %d to %v", i, i+1, got[i+1])
			}
		}
	}
}

// TestTableChunks: rows live in chunks that double from 8 rows and cap at
// 1 024, however many there are, and every row reads back what was
// inserted.
func TestTableChunks(t *testing.T) {
	const rows = grownRows + 64*lastChunkRows + 5
	tb := mustTable(t, 1)
	for i := range rows {
		if fresh, err := tb.insert(storage.Tuple{term.Num(float64(i))}); err != nil || !fresh {
			t.Fatalf("insert %d = %v, %v", i, fresh, err)
		}
	}
	for c, chunk := range tb.chunks {
		if want := min(firstChunkRows<<min(c, growingChunks), lastChunkRows); len(chunk) != want {
			t.Fatalf("chunk %d holds %d rows, want %d", c, len(chunk), want)
		}
	}
	for id := range rows {
		if got := tb.row(id); got[0] != term.Num(float64(id)) {
			t.Fatalf("row %d reads %v", id, got)
		}
	}
}
