package storage

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"kdb/internal/term"
)

// checkRelationInvariants verifies that tuples, present, overflow and
// every built index describe the same extension: each tuple is found at
// its own position through present or the overflow, each entry of those
// is keyed by its tuple's hash or key, and each index lists every
// position exactly once, under the right hash, with no empty list left
// behind.
func checkRelationInvariants(t *testing.T, r *Relation) {
	t.Helper()
	r.mu.RLock()
	defer r.mu.RUnlock()
	if n := len(r.present) + len(r.overflow); n != len(r.tuples) {
		t.Fatalf("present and overflow have %d entries for %d tuples", n, len(r.tuples))
	}
	for i, tp := range r.tuples {
		if got := r.position(tp, HashTerms(tp, AllColumns)); got != i {
			t.Fatalf("%v is found at %d; it is at %d", tp, got, i)
		}
	}
	for h, i := range r.present {
		if got := HashTerms(r.tuples[i], AllColumns); got != h {
			t.Fatalf("present[%x] is %v, whose hash is %x", h, r.tuples[i], got)
		}
	}
	for key, i := range r.overflow {
		if got := r.tuples[i].Key(); got != key {
			t.Fatalf("overflow[%q] is %v, whose key is %q", key, r.tuples[i], got)
		}
	}
	for mask, index := range r.indexes {
		seen := make([]bool, len(r.tuples))
		for key, list := range index {
			if len(list) == 0 {
				t.Fatalf("index %b: empty posting list left under %x", mask, key)
			}
			for _, p := range list {
				if p < 0 || p >= len(r.tuples) {
					t.Fatalf("index %b: dangling position %d of %d", mask, p, len(r.tuples))
				}
				if seen[p] {
					t.Fatalf("index %b: position %d listed twice", mask, p)
				}
				seen[p] = true
				if want := HashTerms(r.tuples[p], mask); want != key {
					t.Fatalf("index %b: position %d (%v) listed under %x", mask, p, r.tuples[p], key)
				}
			}
		}
		if i := slices.Index(seen, false); i >= 0 {
			t.Fatalf("index %b: position %d (%v) is in no posting list", mask, i, r.tuples[i])
		}
	}
}

// selectKeys runs one Select and returns the sorted keys of what it
// yielded, failing on any tuple that does not satisfy the pattern.
func selectKeys(t *testing.T, r *Relation, pattern []term.Term) []string {
	t.Helper()
	var got []string
	err := r.SelectCounted(pattern, nil, func(tp Tuple) bool {
		if !Matches(pattern, tp) {
			t.Fatalf("SelectCounted(%v) yielded %v", pattern, tp)
		}
		got = append(got, tp.Key())
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)
	return got
}

// modelKeys is the reference for selectKeys: a plain loop over the model.
func modelKeys(model map[string]Tuple, pattern []term.Term) []string {
	var want []string
	for k, tp := range model {
		if Matches(pattern, tp) {
			want = append(want, k)
		}
	}
	sort.Strings(want)
	return want
}

// TestRelationModel drives seeded random Insert/Delete/Select against a
// plain Go map, probing every bound-column mask (so every index gets
// built and then maintained) and repeated-variable patterns, and checks
// the relation's internal agreement after every step.
func TestRelationModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runRelationModel(t, seed, narrowDomain) })
	}
}

// narrowDomain draws every column from four values, so duplicates,
// shared index keys and hits on repeated-variable patterns are all
// common. wideDomain gives the first column a hundred: an index on the
// first column alone is selective, so probes binding it and more are
// served through it.
var (
	narrowDomain = [3]int{4, 4, 4}
	wideDomain   = [3]int{100, 3, 3}
)

// runRelationModel is one seeded run of TestRelationModel over the
// column domains given, and returns how many probes an index on a
// subset of their bound columns served.
func runRelationModel(t *testing.T, seed int64, domain [3]int) (subsetProbes int) {
	const arity = 3
	rng := rand.New(rand.NewSource(seed))
	r, err := NewRelation(arity)
	if err != nil {
		t.Fatal(err)
	}
	model := map[string]Tuple{}
	randTuple := func() Tuple {
		tp := make(Tuple, arity)
		for i := range tp {
			tp[i] = term.Sym(fmt.Sprintf("v%d", rng.Intn(domain[i])))
		}
		return tp
	}
	for step := 0; step < 600; step++ {
		tp := randTuple()
		_, had := model[tp.Key()]
		switch n := rng.Intn(10); {
		case n < 4:
			fresh, err := r.Insert(tp)
			if err != nil || fresh == had {
				t.Fatalf("step %d: Insert(%v) = %v, %v; model had it: %v", step, tp, fresh, err, had)
			}
			model[tp.Key()] = tp
		case n < 8:
			removed, err := r.Delete(tp)
			if err != nil || removed != had {
				t.Fatalf("step %d: Delete(%v) = %v, %v; model had it: %v", step, tp, removed, err, had)
			}
			delete(model, tp.Key())
		default:
			pattern := make([]term.Term, arity)
			mask := rng.Intn(1 << arity)
			for i := range pattern {
				if mask&(1<<i) != 0 {
					pattern[i] = tp[i]
				} else {
					// Two variable names over three columns: most
					// patterns repeat one.
					pattern[i] = term.Var(fmt.Sprintf("X%d", rng.Intn(2)))
				}
			}
			if servedBySubset(r, uint64(mask)) {
				subsetProbes++
			}
			if got, want := selectKeys(t, r, pattern), modelKeys(model, pattern); !slices.Equal(got, want) {
				t.Fatalf("step %d: SelectCounted(%v) = %q, model says %q", step, pattern, got, want)
			}
		}
		if r.Len() != len(model) || r.Contains(tp) != (model[tp.Key()] != nil) {
			t.Fatalf("step %d: Len %d, Contains(%v) %v; model has %d", step, r.Len(), tp, r.Contains(tp), len(model))
		}
		checkRelationInvariants(t, r)
	}
	return subsetProbes
}

// servedBySubset reports whether a probe binding the mask's columns
// would be served now through an index on a subset of them.
func servedBySubset(r *Relation, mask uint64) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, exact := r.indexes[mask]
	_, sub := r.subsetIndex(mask)
	return mask != 0 && !exact && sub != nil
}

// TestRelationModelSubsetIndexes is TestRelationModel over a wide first
// column, under the real hash and forced collisions: probes are served
// through selective indexes on a subset of their bound columns (and,
// with every hash colliding, through none, since one key is never
// selective), and still yield exactly the model's tuples.
func TestRelationModelSubsetIndexes(t *testing.T) {
	for _, h := range hashHooks {
		t.Run("hash="+h.name, func(t *testing.T) {
			forceHash(t, h.hook)
			served := 0
			for seed := int64(1); seed <= 6; seed++ {
				served += runRelationModel(t, seed, wideDomain)
			}
			if h.hook == nil && served == 0 {
				t.Fatal("no probe was served through a subset index")
			}
		})
	}
}

// hashHooks are the hashes the tests run under: the real one, then the
// forced collisions — every tuple, every index key and every symbol's or
// string's word on one value, or on one of two.
var hashHooks = []struct {
	name string
	hook func(uint64) uint64
}{
	{"real", nil},
	{"constant", func(uint64) uint64 { return 7 }},
	{"two-valued", func(h uint64) uint64 { return h & 1 }},
}

// forceHash replaces every hash the package computes, and the word of
// every symbol and string built from now on, with hook until the test
// ends.
func forceHash(t *testing.T, hook func(uint64) uint64) {
	t.Cleanup(func() { CollideHook, term.CollideHook = nil, nil })
	CollideHook, term.CollideHook = hook, hook
}

// TestRelationModelUnderCollisions is TestRelationModel with a constant
// and a two-valued hash: distinct tuples sharing a hash are all stored,
// found, deleted and indexed, by the exact comparison and the overflow.
func TestRelationModelUnderCollisions(t *testing.T) {
	for _, h := range hashHooks[1:] {
		t.Run("hash="+h.name, func(t *testing.T) {
			forceHash(t, h.hook)
			for seed := int64(1); seed <= 4; seed++ {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runRelationModel(t, seed, narrowDomain) })
			}
		})
	}
}

// TestRelationIdentityIsTheCodecs: identity is the codec key's, whatever
// the hash: 0 and -0 are two facts, a NaN is one fact with itself, a
// symbol and a string of the same text are two, and a tuple of the wrong
// arity is never contained (nor does asking panic).
func TestRelationIdentityIsTheCodecs(t *testing.T) {
	for _, h := range hashHooks {
		t.Run("hash="+h.name, func(t *testing.T) {
			forceHash(t, h.hook)
			r := mustRelation(t, 2)
			zero, negZero, nan := term.Num(0), term.Num(math.Copysign(0, -1)), term.Num(math.NaN())
			facts := []Tuple{
				{term.Sym("a"), zero}, {term.Sym("a"), negZero}, {term.Sym("a"), nan},
				{term.Sym("a"), term.Str("a")}, {term.Sym("a"), term.Sym("a")},
			}
			for _, tp := range facts {
				if fresh, err := r.Insert(tp); err != nil || !fresh {
					t.Fatalf("Insert(%v) = %v, %v; want a new fact", tp, fresh, err)
				}
			}
			for _, tp := range facts {
				if fresh, _ := r.Insert(tp.Clone()); fresh {
					t.Errorf("Insert(%v) again stored a second copy", tp)
				}
				if !r.Contains(tp.Clone()) {
					t.Errorf("Contains(%v) = false", tp)
				}
			}
			if r.Len() != len(facts) {
				t.Fatalf("Len = %d, want %d", r.Len(), len(facts))
			}
			for _, tp := range []Tuple{{term.Sym("a")}, {term.Sym("a"), zero, zero}, nil} {
				if r.Contains(tp) {
					t.Errorf("Contains(%v) on an arity-2 relation = true", tp)
				}
			}
			if removed, err := r.Delete(Tuple{term.Sym("a"), negZero}); err != nil || !removed {
				t.Fatalf("Delete(a, -0) = %v, %v", removed, err)
			}
			if !r.Contains(Tuple{term.Sym("a"), zero}) || r.Contains(Tuple{term.Sym("a"), negZero}) {
				t.Error("deleting -0 must leave 0 and only 0")
			}
			checkRelationInvariants(t, r)
		})
	}
}

// TestRelationSubsetIndexSelectivity pins when an index on a subset of a
// probe's columns serves it: a selective one with the most keys does; a
// relation holding more than four tuples per key of every subset index
// builds the probe's own index, whatever the relation's size.
func TestRelationSubsetIndexSelectivity(t *testing.T) {
	// fill makes a relation of n tuples (i mod a, i mod b, i).
	fill := func(n, a, b int) *Relation {
		r := mustRelation(t, 3)
		for i := 0; i < n; i++ {
			if _, err := r.Insert(Tuple{term.Num(float64(i % a)), term.Num(float64(i % b)), term.Num(float64(i))}); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}
	probe := func(r *Relation, pattern ...term.Term) Counters {
		var c Counters
		if err := r.SelectCounted(pattern, &c, func(Tuple) bool { return true }); err != nil {
			t.Fatal(err)
		}
		return c
	}
	x, y, z := term.Var("X"), term.Var("Y"), term.Var("Z")
	for _, tc := range []struct {
		name       string
		n, a, b    int
		builds     int64 // of the probe binding columns 1 and 2
		candidates int64
	}{
		{"selective first column", 200, 100, 3, 0, 2}, // column 1, the most keyed, has 2 tuples per key
		{"four per key", 200, 50, 3, 0, 4},            // the bound: still selective
		{"five per key", 200, 40, 3, 1, 2},            // past it: the exact index is built
		{"low selectivity", 200, 2, 3, 1, 34},         // 67 per key of column 2, the most keyed: built
		{"small relation", 8, 8, 2, 0, 1},             // one per key: size does not matter
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := fill(tc.n, tc.a, tc.b)
			probe(r, term.Num(0), y, z) // builds the index on column 1
			probe(r, x, term.Num(0), z) // and on column 2
			c := probe(r, term.Num(0), term.Num(0), z)
			if c.IndexBuilds != tc.builds || c.Candidates != tc.candidates {
				t.Errorf("probe (0, 0, Z): %d builds, %d candidates; want %d, %d", c.IndexBuilds, c.Candidates, tc.builds, tc.candidates)
			}
			checkRelationInvariants(t, r)
		})
	}
}

// TestRelationDeleteEdges pins the swap-remove corner cases with every
// index built: deleting the last tuple, the only tuple, reinserting a
// deleted tuple, and deleting down to empty and starting again.
func TestRelationDeleteEdges(t *testing.T) {
	r, err := NewRelation(2)
	if err != nil {
		t.Fatal(err)
	}
	tup := func(a, b string) Tuple { return Tuple{term.Sym(a), term.Sym(b)} }
	x, y := term.Var("X"), term.Var("Y")
	model := map[string]Tuple{}
	check := func(what string) {
		t.Helper()
		checkRelationInvariants(t, r)
		for _, pattern := range [][]term.Term{{x, y}, {term.Sym("a"), y}, {x, term.Sym("b")}, {term.Sym("a"), term.Sym("b")}, {x, x}} {
			if got, want := selectKeys(t, r, pattern), modelKeys(model, pattern); !slices.Equal(got, want) {
				t.Fatalf("%s: SelectCounted(%v) = %q, want %q", what, pattern, got, want)
			}
		}
	}
	insert := func(tp Tuple) {
		t.Helper()
		if fresh, err := r.Insert(tp); err != nil || !fresh {
			t.Fatalf("Insert(%v) = %v, %v", tp, fresh, err)
		}
		model[tp.Key()] = tp
	}
	remove := func(tp Tuple) {
		t.Helper()
		if removed, err := r.Delete(tp); err != nil || !removed {
			t.Fatalf("Delete(%v) = %v, %v", tp, removed, err)
		}
		delete(model, tp.Key())
	}

	insert(tup("a", "b"))
	check("one tuple") // builds every index the patterns use
	remove(tup("a", "b"))
	check("delete the only tuple")
	if removed, _ := r.Delete(tup("a", "b")); removed {
		t.Fatal("deleting from an empty relation reported a removal")
	}
	insert(tup("a", "b"))
	check("reinsert after delete-to-empty")
	insert(tup("a", "a"))
	insert(tup("c", "b"))
	remove(tup("c", "b"))
	check("delete the last tuple")
	remove(tup("a", "b"))
	check("delete the first tuple: the last moves into its slot")
	insert(tup("a", "b"))
	check("reinsert the deleted tuple")
	for _, tp := range []Tuple{tup("a", "a"), tup("a", "b")} {
		remove(tp)
	}
	check("empty again")
	r.mu.RLock()
	defer r.mu.RUnlock()
	for mask, index := range r.indexes {
		if len(index) != 0 {
			t.Fatalf("index %b keeps %d keys for an empty relation", mask, len(index))
		}
	}
}

// TestRelationDeleteDuringScan: a callback may change the relation it is
// iterating. The iteration goes on over the version it captured, and
// the relation ends up consistent.
func TestRelationDeleteDuringScan(t *testing.T) {
	r, _ := NewRelation(2)
	for i := 0; i < 50; i++ {
		r.Insert(Tuple{term.Sym(fmt.Sprintf("s%d", i%5)), term.Num(float64(i))})
	}
	pattern := []term.Term{term.Sym("s1"), term.Var("N")}
	seen := 0
	if err := r.SelectCounted(pattern, nil, func(tp Tuple) bool {
		seen++
		if tp[0] != term.Sym("s1") {
			t.Fatalf("SelectCounted(%v) yielded %v", pattern, tp)
		}
		if removed, err := r.Delete(tp); err != nil || !removed {
			t.Fatalf("Delete(%v) = %v, %v", tp, removed, err)
		}
		r.Insert(Tuple{term.Sym("s1"), term.Num(float64(100 + seen))})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if seen != 10 || r.Len() != 50 {
		t.Fatalf("saw %d tuples, relation holds %d; want 10 and 50", seen, r.Len())
	}
	r.Scan(func(tp Tuple) bool {
		r.Delete(tp)
		return true
	})
	if r.Len() != 0 {
		t.Fatalf("%d tuples left after deleting every scanned tuple", r.Len())
	}
	checkRelationInvariants(t, r)
}

// TestRelationConcurrentProbeDelete is the regression test for the torn
// probe: Select used to fetch the posting list and the tuple slice under
// two lock acquisitions, so a Delete in between handed it positions into
// a shorter, shifted slice. Run under -race: no panic, no data race, and
// every tuple a probe yields satisfies its pattern.
func TestRelationConcurrentProbeDelete(t *testing.T) {
	r, _ := NewRelation(2)
	const groups, perGroup = 8, 40
	tup := func(g, i int) Tuple { return Tuple{term.Sym(fmt.Sprintf("g%d", g)), term.Num(float64(i))} }
	for g := 0; g < groups; g++ {
		for i := 0; i < perGroup; i++ {
			r.Insert(tup(g, i))
		}
	}
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for n := 0; n < 4000; n++ {
				tp := tup(rng.Intn(groups), rng.Intn(perGroup))
				if rng.Intn(2) == 0 {
					r.Delete(tp)
				} else {
					r.Insert(tp)
				}
			}
		}(w)
	}
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			bound := []term.Term{term.Sym(fmt.Sprintf("g%d", g)), term.Var("N")}
			open := []term.Term{term.Var("G"), term.Var("N")}
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, pattern := range [][]term.Term{bound, open} {
					if err := r.SelectCounted(pattern, nil, func(tp Tuple) bool {
						if len(tp) != 2 || !Matches(pattern, tp) {
							t.Errorf("SelectCounted(%v) yielded %v", pattern, tp)
						}
						return true
					}); err != nil {
						t.Error(err)
					}
				}
				r.Scan(func(tp Tuple) bool { return len(tp) == 2 })
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	checkRelationInvariants(t, r)
}

// TestRelationSelectRepeatedVariableAllocs: once the index for the bound
// columns exists, a probe whose pattern repeats a variable allocates
// nothing — the repeat is checked against the variable's earlier position
// in the pattern, not through a per-candidate map.
func TestRelationSelectRepeatedVariableAllocs(t *testing.T) {
	r, err := NewRelation(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		tp := Tuple{term.Sym("k"), term.Num(float64(i % 8)), term.Num(float64(i / 8))}
		if _, err := r.Insert(tp); err != nil {
			t.Fatal(err)
		}
	}
	x := term.Var("X")
	pattern := []term.Term{term.Sym("k"), x, x}
	n := 0
	count := func(Tuple) bool { n++; return true }
	probe := func() {
		if err := r.SelectCounted(pattern, nil, count); err != nil {
			t.Fatal(err)
		}
	}
	probe() // builds the index
	if n != 8 {
		t.Fatalf("k(X, X) matched %d tuples, want 8", n)
	}
	if allocs := testing.AllocsPerRun(200, probe); allocs != 0 {
		t.Errorf("a probe with a repeated variable allocates %v per call, want 0", allocs)
	}
	// The same with nothing bound: a full scan.
	pattern[0] = term.Var("K")
	if allocs := testing.AllocsPerRun(200, probe); allocs != 0 {
		t.Errorf("a full-scan probe with a repeated variable allocates %v per call, want 0", allocs)
	}
	// Charging the probes to a statement's sink costs nothing either.
	var sink Counters
	if allocs := testing.AllocsPerRun(200, func() {
		if err := r.SelectCounted(pattern, &sink, count); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("a counted probe allocates %v per call, want 0", allocs)
	}
	if sink.Probes == 0 || sink.FullScans != sink.Probes {
		t.Errorf("counted full scans: %+v", sink)
	}
}
