package kb

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"kdb/internal/storage"
	"kdb/internal/term"
)

// chainKB loads an n-node chain, edge(c0, c1) … edge(cn-2, cn-1), with
// the closure rules of the benchmark's closure workload.
func chainKB(t testing.TB, n int) *KB {
	t.Helper()
	var src strings.Builder
	for i := 0; i+1 < n; i++ {
		fmt.Fprintf(&src, "edge(c%d, c%d).\n", i, i+1)
	}
	src.WriteString("path(X, Y) :- edge(X, Y).\npath(X, Y) :- edge(X, Z), path(Z, Y).\n")
	return loadKB(t, src.String())
}

// retrieveTuples runs a retrieve and returns its answer tuples.
func retrieveTuples(t testing.TB, k *KB, stmt string) []storage.Tuple {
	t.Helper()
	res, err := k.ExecStringContext(context.Background(), stmt)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	return res.Retrieve.Tuples
}

// TestRetrieveClosureAllocs: the closure of a 100-node chain, 4 950
// answers derived into two derived relations and rendered, costs at most
// 400 allocations: a derived fact allocates nothing of its own.
func TestRetrieveClosureAllocs(t *testing.T) {
	k := chainKB(t, 100)
	const stmt = `retrieve path(X, Y).`
	if n := len(retrieveTuples(t, k, stmt)); n != 4950 {
		t.Fatalf("%d answers, want 4950", n)
	}
	allocs := testing.AllocsPerRun(5, func() {
		res, err := k.ExecStringContext(context.Background(), stmt)
		if err != nil {
			t.Fatal(err)
		}
		_ = res.String()
	})
	t.Logf("%s on a 100-node chain: %.0f allocations", stmt, allocs)
	if allocs > 400 {
		t.Errorf("%s on a 100-node chain: %.0f allocations, want at most 400", stmt, allocs)
	}
}

// TestRetrieveResultOwnsItsTuples: a result's tuples are views of the
// evaluation's derived rows, clipped so that appending to one never
// writes into the next, and the statement's rows are its own: the next
// statement on the same KB, of the same shape, leaves the first result
// as it was.
func TestRetrieveResultOwnsItsTuples(t *testing.T) {
	k := chainKB(t, 40)
	first := retrieveTuples(t, k, `retrieve path(X, Y).`)
	want := make([]storage.Tuple, len(first))
	for i, tp := range first {
		want[i] = tp.Clone()
	}
	for i := range len(first) - 1 {
		_ = append(first[i], term.Sym("clobber"))
		if !slices.Equal(first[i+1], want[i+1]) {
			t.Fatalf("appending to answer %d changed answer %d to %v", i, i+1, first[i+1])
		}
	}
	second := retrieveTuples(t, k, `retrieve path(c0, Y).`)
	third := retrieveTuples(t, k, `retrieve path(X, Y).`)
	if len(second) != 39 || len(third) != len(first) {
		t.Fatalf("%d and %d answers, want 39 and %d", len(second), len(third), len(first))
	}
	if &third[0][0] == &first[0][0] {
		t.Fatal("two statements' answers share rows")
	}
	for i, tp := range first {
		if !slices.Equal(tp, want[i]) {
			t.Fatalf("answer %d of the first statement reads %v after later statements, want %v", i, tp, want[i])
		}
	}
}

// TestRetrieveKeepsNothingResident: a statement's derived relations die
// with it. After many closures whose results are dropped, the live heap
// has grown by less than a quarter of what one closure allocates — no
// pool or cache holds on to the rows.
func TestRetrieveKeepsNothingResident(t *testing.T) {
	k := chainKB(t, 100)
	const stmt, runs = `retrieve path(X, Y).`, 20
	retrieveTuples(t, k, stmt)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range runs {
		retrieveTuples(t, k, stmt)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("one closure allocates %d KiB; the live heap moved %d KiB over %d", per>>10, grown>>10, runs)
	if grown > int64(per/4) {
		t.Errorf("the live heap grew %d KiB over %d closures of %d KiB each: something keeps their rows", grown>>10, runs, per>>10)
	}
}
