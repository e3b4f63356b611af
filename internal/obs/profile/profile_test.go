package profile

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestProfileMerge checks sample merging: rows key on rule text,
// iterations count rounds, deltas keep round order, and the allocation
// estimate follows tuples × (24 + 16 × arity).
func TestProfileMerge(t *testing.T) {
	p := New()
	p.Finish("seminaive", 5*time.Millisecond)
	p.Add(Sample{Rule: "r1.", Pred: "p", Arity: 2, Wall: time.Millisecond, Tuples: 3, Probes: 4, FullScans: 1})
	p.Add(Sample{Rule: "r1.", Pred: "p", Arity: 2, Wall: time.Millisecond, Tuples: 1, Probes: 2})
	p.Add(Sample{Rule: "r2.", Pred: "q", Arity: 1, Wall: 3 * time.Millisecond, Tuples: 2, Lookups: 5})

	rows := p.Rows()
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
	if len(r1.DeltaSizes) != 2 || r1.DeltaSizes[0] != 3 || r1.DeltaSizes[1] != 1 {
		t.Errorf("r1 deltas = %v, want [3 1]", r1.DeltaSizes)
	}
	if want := int64(4 * (24 + 16*2)); r1.AllocBytes != want {
		t.Errorf("r1 alloc = %d, want %d", r1.AllocBytes, want)
	}
}

// TestProfileText pins the renderer's shape: header, per-rule blocks
// with the index/scan probe split, and the rule legend with synthetic
// markers.
func TestProfileText(t *testing.T) {
	p := New()
	p.Finish("magic", 0)
	p.Add(Sample{Rule: "p(X) :- q(X).", Pred: "p", Arity: 1, Tuples: 2, Probes: 5, FullScans: 2})
	p.Add(Sample{Rule: "m$guard.", Pred: "m$guard", Synthetic: true, Tuples: 1})
	text := p.String()
	for _, want := range []string{
		"profile: engine=magic",
		"rules=2 tuples=3",
		"probes=5 (index 3, scan 2)",
		"r1: p(X) :- q(X).",
		"r2: m$guard. (synthetic)",
		"r2*",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("rendering missing %q:\n%s", want, text)
		}
	}
}

// TestProfileJSON checks the wire form consumed by the serve route and
// the query log.
func TestProfileJSON(t *testing.T) {
	p := New()
	p.Finish("topdown", time.Millisecond)
	p.Add(Sample{Rule: "p(X) :- q(X).", Pred: "p", Arity: 1, Tuples: 2})
	b, err := json.Marshal(p)
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

// TestProfileConcurrentAdd exercises the collector's locking (run with
// -race): several goroutines report to one Profile.
func TestProfileConcurrentAdd(t *testing.T) {
	p := New()
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				p.Add(Sample{Rule: "r.", Pred: "r", Tuples: 1})
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	rows := p.Rows()
	if len(rows) != 1 || rows[0].Iterations != 400 || rows[0].Tuples != 400 {
		t.Errorf("rows = %+v", rows)
	}
}
