package profile

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
	"unsafe"

	"kdb/internal/term"
)

// TestTupleBytes pins the allocation estimate to what a derived tuple
// holds: one term.Term per column of its table's slab. An arity-2 rule
// deriving 7 tuples reads 448 B.
func TestTupleBytes(t *testing.T) {
	for arity := range 4 {
		want := int64(uintptr(arity) * unsafe.Sizeof(term.Term{}))
		if got := TupleBytes(arity); got != want {
			t.Errorf("TupleBytes(%d) = %d, want %d", arity, got, want)
		}
	}
	if got := 7 * TupleBytes(2); got != 448 {
		t.Errorf("7 arity-2 tuples estimate %d B, want 448", got)
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
