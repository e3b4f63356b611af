package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"kdb/internal/term"
)

// checkRelationInvariants verifies that tuples, present and every built
// index describe the same extension: each tuple is keyed to its own
// position, and each index lists every position exactly once, under the
// right key, with no empty list left behind.
func checkRelationInvariants(t *testing.T, r *Relation) {
	t.Helper()
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.present) != len(r.tuples) {
		t.Fatalf("present has %d keys for %d tuples", len(r.present), len(r.tuples))
	}
	for i, tp := range r.tuples {
		if got, ok := r.present[tp.Key()]; !ok || got != i {
			t.Fatalf("present[%v] = %d, %v; the tuple is at %d", tp, got, ok, i)
		}
	}
	for mask, index := range r.indexes {
		seen := make([]bool, len(r.tuples))
		for key, list := range index {
			if len(list) == 0 {
				t.Fatalf("index %b: empty posting list left under %q", mask, key)
			}
			for _, p := range list {
				if p < 0 || p >= len(r.tuples) {
					t.Fatalf("index %b: dangling position %d of %d", mask, p, len(r.tuples))
				}
				if seen[p] {
					t.Fatalf("index %b: position %d listed twice", mask, p)
				}
				seen[p] = true
				if want := string(appendMaskKey(nil, r.tuples[p], mask)); want != key {
					t.Fatalf("index %b: position %d (%v) listed under %q", mask, p, r.tuples[p], key)
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
	err := r.Select(pattern, func(tp Tuple) bool {
		if !matches(pattern, tp) {
			t.Fatalf("Select(%v) yielded %v", pattern, tp)
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
		if matches(pattern, tp) {
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
	const arity = 3
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			r, err := NewRelation(arity)
			if err != nil {
				t.Fatal(err)
			}
			model := map[string]Tuple{}
			// A small domain, so duplicates, shared index keys and hits on
			// repeated-variable patterns are all common.
			randTuple := func() Tuple {
				tp := make(Tuple, arity)
				for i := range tp {
					tp[i] = term.Sym(fmt.Sprintf("v%d", rng.Intn(4)))
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
					if got, want := selectKeys(t, r, pattern), modelKeys(model, pattern); !slices.Equal(got, want) {
						t.Fatalf("step %d: Select(%v) = %q, model says %q", step, pattern, got, want)
					}
				}
				if r.Len() != len(model) || r.Contains(tp) != (model[tp.Key()] != nil) {
					t.Fatalf("step %d: Len %d, Contains(%v) %v; model has %d", step, r.Len(), tp, r.Contains(tp), len(model))
				}
				checkRelationInvariants(t, r)
			}
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
				t.Fatalf("%s: Select(%v) = %q, want %q", what, pattern, got, want)
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
	if err := r.Select(pattern, func(tp Tuple) bool {
		seen++
		if tp[0] != term.Sym("s1") {
			t.Fatalf("Select(%v) yielded %v", pattern, tp)
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
					if err := r.Select(pattern, func(tp Tuple) bool {
						if len(tp) != 2 || !matches(pattern, tp) {
							t.Errorf("Select(%v) yielded %v", pattern, tp)
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
		if err := r.Select(pattern, count); err != nil {
			t.Fatal(err)
		}
	}
	probe() // builds the index
	if n != 8 {
		t.Fatalf("k(X, X) matched %d tuples, want 8", n)
	}
	if allocs := testing.AllocsPerRun(200, probe); allocs != 0 {
		t.Errorf("Select with a repeated variable allocates %v per call, want 0", allocs)
	}
	// The same with nothing bound: a full scan.
	pattern[0] = term.Var("K")
	if allocs := testing.AllocsPerRun(200, probe); allocs != 0 {
		t.Errorf("full-scan Select with a repeated variable allocates %v per call, want 0", allocs)
	}
}
