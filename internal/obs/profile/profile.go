// Package profile holds the per-rule cost rows of one profiled
// evaluation and renders them: wall time, rounds, tuples produced, join
// probe counts split index-hit/full-scan, per rule. The rows are part of
// the statement's one record (eval.EvalStats.Profile); the engine that
// fills them folds every round of a rule into its row. The result is the
// runtime twin of the paper's explain machinery: explain answers "why is
// this fact derived", a profile answers "why is this query slow".
//
// Rows are keyed by the rule's source text, so a profile reads in terms
// of the user's program.
package profile

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"
	"unsafe"

	"kdb/internal/term"
)

// Row is the per-rule account of one evaluation.
type Row struct {
	Rule      string `json:"rule"`
	Pred      string `json:"pred"`
	Synthetic bool   `json:"synthetic,omitempty"`
	// Iterations is the number of rounds in which the rule was
	// evaluated (not necessarily productive ones).
	Iterations int64         `json:"iterations"`
	Tuples     int64         `json:"tuples"`
	Wall       time.Duration `json:"wall_ns"`
	Lookups    int64         `json:"lookups"`
	// Probes splits into index-served (Probes - FullScans) and
	// full-extension scans.
	Probes      int64 `json:"probes"`
	FullScans   int64 `json:"full_scans"`
	Candidates  int64 `json:"candidates"`
	IndexBuilds int64 `json:"index_builds"`
	// DeltaSizes is the per-round count of new tuples, in round order
	// (the semi-naive delta trajectory).
	DeltaSizes []int64 `json:"delta_sizes,omitempty"`
	// AllocBytes estimates the memory the rule's derived tuples
	// retain: Tuples × TupleBytes(arity). An estimate, not a
	// measurement: the engines do not instrument the allocator.
	AllocBytes int64 `json:"alloc_bytes"`
}

// TupleBytes estimates the retained size of one derived tuple of the
// given arity: one term.Term per column, its row of a derived table's
// slab. The row has no slice header of its own.
func TupleBytes(arity int) int64 {
	return int64(arity) * int64(unsafe.Sizeof(term.Term{}))
}

// Add folds o, a later account of the same rule, into r: the counts add
// up and o's rounds follow r's.
func (r *Row) Add(o Row) {
	r.Iterations += o.Iterations
	r.Tuples += o.Tuples
	r.Wall += o.Wall
	r.Lookups += o.Lookups
	r.Probes += o.Probes
	r.FullScans += o.FullScans
	r.Candidates += o.Candidates
	r.IndexBuilds += o.IndexBuilds
	r.DeltaSizes = append(r.DeltaSizes, o.DeltaSizes...)
	r.AllocBytes += o.AllocBytes
}

// Sort puts rows in display order: most expensive (by wall time, then
// tuples, then rule text) first.
func Sort(rows []Row) {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Wall != rows[j].Wall {
			return rows[i].Wall > rows[j].Wall
		}
		if rows[i].Tuples != rows[j].Tuples {
			return rows[i].Tuples > rows[j].Tuples
		}
		return rows[i].Rule < rows[j].Rule
	})
}

// Text renders the rows of one evaluation by engine, in display order,
// as an annotated plan in the style of the explain tree: a header with
// the engine and the evaluation's wall time, one indented block per
// rule, and a rule legend keyed r1, r2, ….
func Text(engine string, wall time.Duration, rows []Row) string {
	var b strings.Builder
	var tuples int64
	for _, r := range rows {
		tuples += r.Tuples
	}
	fmt.Fprintf(&b, "profile: engine=%s wall=%s rules=%d tuples=%d\n",
		engine, wall, len(rows), tuples)
	for i, r := range rows {
		marker := fmt.Sprintf("r%d", i+1)
		if r.Synthetic {
			marker += "*"
		}
		fmt.Fprintf(&b, "  %-4s wall=%-10s iters=%-3d tuples=%-6d lookups=%d\n",
			marker, r.Wall, r.Iterations, r.Tuples, r.Lookups)
		fmt.Fprintf(&b, "       probes=%d (index %d, scan %d) candidates=%d index-builds=%d alloc~%s\n",
			r.Probes, r.Probes-r.FullScans, r.FullScans, r.Candidates, r.IndexBuilds, sizeString(r.AllocBytes))
		if len(r.DeltaSizes) > 1 {
			fmt.Fprintf(&b, "       deltas=%s\n", deltaString(r.DeltaSizes))
		}
	}
	if len(rows) > 0 {
		b.WriteString("\nrules:\n")
		for i, r := range rows {
			star := ""
			if r.Synthetic {
				star = " (synthetic)"
			}
			fmt.Fprintf(&b, "  r%d: %s%s\n", i+1, r.Rule, star)
		}
	}
	return b.String()
}

// deltaString renders a delta trajectory as "[3 2 1]".
func deltaString(ds []int64) string {
	var b strings.Builder
	b.WriteByte('[')
	for i, d := range ds {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", d)
	}
	b.WriteByte(']')
	return b.String()
}

// sizeString renders a byte estimate human-readably (B / KiB / MiB).
func sizeString(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// JSON renders the rows of one evaluation by engine as one object: the
// engine, the evaluation's wall time and the rows in display order.
func JSON(engine string, wall time.Duration, rows []Row) ([]byte, error) {
	type wire struct {
		Engine string `json:"engine"`
		WallNS int64  `json:"wall_ns"`
		Rows   []Row  `json:"rows"`
	}
	return json.Marshal(wire{Engine: engine, WallNS: int64(wall), Rows: rows})
}
