package profile

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"kdb/internal/term"
)

// TestProfileMerge checks folding: rows key on rule text, iterations
// and counts add up, deltas keep round order, and the result is in
// display order, most expensive first.
func TestProfileMerge(t *testing.T) {
	rows := Fold(nil, []Row{
		{Rule: "r1.", Pred: "p", Iterations: 1, Wall: time.Millisecond, Tuples: 3, Probes: 4, FullScans: 1, DeltaSizes: []int64{3}},
		{Rule: "r2.", Pred: "q", Iterations: 1, Wall: 3 * time.Millisecond, Tuples: 2, Lookups: 5, DeltaSizes: []int64{2}},
	})
	rows = Fold(rows, []Row{{Rule: "r1.", Pred: "p", Iterations: 1, Wall: time.Millisecond, Tuples: 1, Probes: 2, DeltaSizes: []int64{1}}})
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	// Sorted most-expensive (wall) first: r2's 3ms beats r1's 2ms.
	if rows[0].Rule != "r2." || rows[1].Rule != "r1." {
		t.Fatalf("order = %s, %s; want r2., r1.", rows[0].Rule, rows[1].Rule)
	}
	r1 := rows[1]
	if r1.Iterations != 2 || r1.Tuples != 4 || r1.Wall != 2*time.Millisecond {
		t.Errorf("r1 merged wrong: %+v", r1)
	}
	if r1.Probes != 6 || r1.FullScans != 1 {
		t.Errorf("r1 probes = %d/%d, want 6/1", r1.Probes, r1.FullScans)
	}
	if !slices.Equal(r1.DeltaSizes, []int64{3, 1}) {
		t.Errorf("r1 deltas = %v, want [3 1]", r1.DeltaSizes)
	}
}

// TestTupleBytes pins the allocation estimate to what a derived tuple
// holds: a slice header and one term.Term per column. An arity-2 rule
// deriving 7 tuples reads 616 B.
func TestTupleBytes(t *testing.T) {
	for arity := range 4 {
		want := int64(unsafe.Sizeof([]term.Term(nil)) + uintptr(arity)*unsafe.Sizeof(term.Term{}))
		if got := TupleBytes(arity); got != want {
			t.Errorf("TupleBytes(%d) = %d, want %d", arity, got, want)
		}
	}
	if got := 7 * TupleBytes(2); got != 616 {
		t.Errorf("7 arity-2 tuples estimate %d B, want 616", got)
	}
}

// TestProfileText pins the renderer's shape: header, per-rule blocks
// with the index/scan probe split, and the rule legend with synthetic
// markers.
func TestProfileText(t *testing.T) {
	text := Text("magic", 0, []Row{
		{Rule: "p(X) :- q(X).", Pred: "p", Iterations: 1, Tuples: 2, Probes: 5, FullScans: 2, AllocBytes: 616},
		{Rule: "m$guard.", Pred: "m$guard", Synthetic: true, Iterations: 1, Tuples: 1},
	})
	for _, want := range []string{
		"profile: engine=magic",
		"rules=2 tuples=3",
		"probes=5 (index 3, scan 2)",
		"alloc~616B",
		"r1: p(X) :- q(X).",
		"r2: m$guard. (synthetic)",
		"r2*",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("rendering missing %q:\n%s", want, text)
		}
	}
}

// TestProfileJSON checks the wire form consumed by the serve route.
func TestProfileJSON(t *testing.T) {
	b, err := JSON("topdown", time.Millisecond, []Row{{Rule: "p(X) :- q(X).", Pred: "p", Tuples: 2}})
	if err != nil {
		t.Fatal(err)
	}
	var wire struct {
		Engine string `json:"engine"`
		WallNS int64  `json:"wall_ns"`
		Rows   []Row  `json:"rows"`
	}
	if err := json.Unmarshal(b, &wire); err != nil {
		t.Fatal(err)
	}
	if wire.Engine != "topdown" || wire.WallNS != int64(time.Millisecond) || len(wire.Rows) != 1 {
		t.Errorf("wire = %+v", wire)
	}
	if wire.Rows[0].Pred != "p" || wire.Rows[0].Tuples != 2 {
		t.Errorf("row = %+v", wire.Rows[0])
	}
}
