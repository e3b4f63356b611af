// Package profile implements per-rule cost accounting for the
// evaluation engines: while a query runs with profiling enabled, every
// engine reports one Sample per (rule, evaluation round) — wall time,
// tuples produced, join probe counts split index-hit/full-scan — and
// the Profile merges them into one Row per rule. The result is the
// runtime twin of the paper's explain machinery: explain answers "why
// is this fact derived", a profile answers "why is this query slow".
//
// The package is deliberately self-contained (no engine imports): rules
// are identified by their source text, so the same collector serves the
// bottom-up, top-down, and magic engines, and the magic rewrite can
// relabel its generated rules with the source rules they came from.
package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Sample is one engine report: the cost of evaluating one rule once
// (one semi-naive round, one top-down pass, one naive re-derivation).
type Sample struct {
	// Rule is the rule's source text, the merge key across samples and
	// engines.
	Rule string
	// Pred is the rule's head predicate.
	Pred string
	// Arity is the head arity, used for the allocation estimate.
	Arity int
	// Synthetic marks rules the evaluation invented (the query rule,
	// magic guards and seeds); renderers set them apart and parity
	// checks skip them.
	Synthetic bool
	// Wall is the time spent joining the rule's body this round.
	Wall time.Duration
	// Tuples is the number of new facts the rule derived this round.
	Tuples int64
	// Lookups counts body-atom resolutions.
	Lookups int64
	// Probes / FullScans / Candidates / IndexBuilds are the storage
	// counter deltas attributed to the rule (see storage.Counters).
	Probes      int64
	FullScans   int64
	Candidates  int64
	IndexBuilds int64
}

// Row is the merged, per-rule account of one evaluation.
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
	// (the semi-naive delta trajectory; top-down: per-pass growth).
	DeltaSizes []int64 `json:"delta_sizes,omitempty"`
	// AllocBytes estimates the memory the rule's derived tuples
	// retain: Tuples × (24 + 16 × arity) — a slice header plus one
	// two-word term per column. An estimate, not a measurement: the
	// engines do not instrument the allocator.
	AllocBytes int64 `json:"alloc_bytes"`
}

// tupleBytes estimates the retained size of one derived tuple of the
// given arity (slice header + two words per term).
func tupleBytes(arity int) int64 { return 24 + 16*int64(arity) }

// Profile accumulates samples into per-rule rows. It is safe for
// concurrent use.
type Profile struct {
	mu     sync.Mutex
	rows   map[string]*Row
	order  []string // first-report order, for stable output
	engine string
	wall   time.Duration
}

// New returns an empty collector.
func New() *Profile {
	return &Profile{rows: make(map[string]*Row)}
}

// Add merges one sample. Safe for concurrent use.
func (p *Profile) Add(s Sample) {
	p.mu.Lock()
	defer p.mu.Unlock()
	r, ok := p.rows[s.Rule]
	if !ok {
		r = &Row{Rule: s.Rule, Pred: s.Pred, Synthetic: s.Synthetic}
		p.rows[s.Rule] = r
		p.order = append(p.order, s.Rule)
	}
	r.Iterations++
	r.Tuples += s.Tuples
	r.Wall += s.Wall
	r.Lookups += s.Lookups
	r.Probes += s.Probes
	r.FullScans += s.FullScans
	r.Candidates += s.Candidates
	r.IndexBuilds += s.IndexBuilds
	r.DeltaSizes = append(r.DeltaSizes, s.Tuples)
	r.AllocBytes += s.Tuples * tupleBytes(s.Arity)
}

// Finish records which engine produced the samples and the whole
// evaluation's wall time (the per-rule rows only cover rule-body joins,
// not planning or scheduling).
func (p *Profile) Finish(engine string, wall time.Duration) {
	p.mu.Lock()
	p.engine = engine
	p.wall = wall
	p.mu.Unlock()
}

// Engine returns the recorded engine name.
func (p *Profile) Engine() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.engine
}

// Wall returns the recorded evaluation wall time.
func (p *Profile) Wall() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.wall
}

// Rows returns a deep copy of the merged rows, most expensive (by
// wall time, then tuples, then rule text) first.
func (p *Profile) Rows() []Row {
	p.mu.Lock()
	out := make([]Row, 0, len(p.order))
	for _, key := range p.order {
		r := *p.rows[key]
		r.DeltaSizes = append([]int64(nil), r.DeltaSizes...)
		out = append(out, r)
	}
	p.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Wall != out[j].Wall {
			return out[i].Wall > out[j].Wall
		}
		if out[i].Tuples != out[j].Tuples {
			return out[i].Tuples > out[j].Tuples
		}
		return out[i].Rule < out[j].Rule
	})
	return out
}

// Len returns the number of distinct rules sampled.
func (p *Profile) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.rows)
}

// WriteText renders the profile as an annotated plan in the style of
// the explain tree: one indented block per rule, most expensive first,
// followed by a rule legend keyed r1, r2, … in display order.
func (p *Profile) WriteText(w io.Writer) error {
	rows := p.Rows()
	var b strings.Builder
	var tuples int64
	for _, r := range rows {
		tuples += r.Tuples
	}
	fmt.Fprintf(&b, "profile: engine=%s wall=%s rules=%d tuples=%d\n",
		p.Engine(), p.Wall(), len(rows), tuples)
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
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders the profile as text.
func (p *Profile) String() string {
	var b strings.Builder
	p.WriteText(&b) // strings.Builder never errors
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

// MarshalJSON emits the engine, total wall time, and merged rows
// (most expensive first).
func (p *Profile) MarshalJSON() ([]byte, error) {
	type wire struct {
		Engine string `json:"engine"`
		WallNS int64  `json:"wall_ns"`
		Rows   []Row  `json:"rows"`
	}
	return json.Marshal(wire{Engine: p.Engine(), WallNS: int64(p.Wall()), Rows: p.Rows()})
}

// WriteJSON writes the profile as one indented JSON document.
func (p *Profile) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}
