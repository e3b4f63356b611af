package eval

import (
	"fmt"
	"strings"
	"time"

	"kdb/internal/obs/profile"
)

// ComponentStats records the evaluation of one strongly connected
// component of the rule dependency graph.
type ComponentStats struct {
	// Preds are the component's predicates (sorted).
	Preds []string `json:"preds"`
	// Recursive reports whether the component required fixpoint iteration.
	Recursive bool `json:"recursive,omitempty"`
	// Calls counts the distinct calls the component's rules were run
	// for, constant and sideways alike: its call tables' rows. Mask has
	// each table's mask ('b' bound, 'f' free), comma separated; "" means
	// the rules were run in full.
	Calls int    `json:"calls,omitempty"`
	Mask  string `json:"mask,omitempty"`
	// Iterations counts rule-application rounds, the first included.
	Iterations int `json:"iterations,omitempty"`
	// Facts counts the facts newly derived by this component.
	Facts int `json:"facts,omitempty"`
	// DeltaSizes records, per iteration, how many fresh facts that round
	// contributed (the size of the next semi-naive delta).
	DeltaSizes []int `json:"delta_sizes,omitempty"`
	// Lookups counts body-atom lookups issued while evaluating the
	// component (each is one probe of a derived and/or stored relation).
	Lookups int64 `json:"lookups,omitempty"`
	// Wall is the component's wall-clock evaluation time.
	Wall time.Duration `json:"wall_ns,omitempty"`
}

// EvalStats is the observability record of one RetrieveContext evaluation.
type EvalStats struct {
	// Engine names the evaluation strategy that produced the record.
	Engine string `json:"engine"`
	// Components holds one entry per SCC the statement evaluated, in
	// evaluation order (bottom-up engines; empty for top-down): of the rule
	// set's schedule — its condensation's topological order, ties broken
	// by sorted predicate names — those with rules the answer depends on,
	// then the query rules' own component, however many disjuncts the
	// qualifier has. A stopped statement lists the components it reached.
	Components []ComponentStats `json:"components,omitempty"`
	// Facts is the total number of facts derived.
	Facts int `json:"facts"`
	// Lookups is the total number of body-atom lookups issued (summed over
	// components for bottom-up engines).
	Lookups int64 `json:"lookups"`
	// Passes counts naive-iteration passes (top-down engine only).
	Passes int `json:"passes,omitempty"`
	// Tables counts call-pattern tables (top-down engine only).
	Tables int `json:"tables,omitempty"`
	// Probes, Candidates, and IndexBuilds aggregate the storage-level
	// counters of every relation the evaluation touched: Select calls
	// served, candidate tuples examined, and hash indexes built.
	// FullScans counts the probes that had no usable index and walked
	// the full extension (Probes - FullScans were index-served).
	Probes      int64 `json:"probes"`
	FullScans   int64 `json:"full_scans,omitempty"`
	Candidates  int64 `json:"candidates"`
	IndexBuilds int64 `json:"index_builds"`
	// ProvEntries is the number of why-provenance witnesses this
	// evaluation recorded (zero when recording was disabled).
	ProvEntries int `json:"provenance_entries,omitempty"`
	// Plan is the time spent planning the statement: its query rules
	// compiled and its constants' calls walked (semi-naive only).
	Plan time.Duration `json:"plan_ns,omitempty"`
	// Wall is the evaluation time, planning excluded.
	Wall time.Duration `json:"wall_ns"`
	// StopReason is empty for a run-to-completion evaluation; a governed
	// stop records why ("deadline", "canceled", "limit:<kind>", "panic").
	// The record then holds the snapshot at stop time.
	StopReason string `json:"stop_reason,omitempty"`
	// Profile holds one cost row per evaluated rule, in display order,
	// when the engine was built WithProfile (never nil then, nil
	// otherwise). The rows partition the record: their tuples, lookups,
	// probes, full scans, candidates and index builds sum to its totals.
	Profile []profile.Row `json:"-"`
}

// StatsReporter is implemented by engines that record evaluation
// statistics. LastStats returns the record of the most recent
// RetrieveContext, or nil if none completed yet.
type StatsReporter interface {
	LastStats() *EvalStats
}

// String renders the record as a small report: one summary line followed
// by one line per evaluated component.
func (s *EvalStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine=%s wall=%s facts=%d lookups=%d probes=%d (scan %d) candidates=%d index-builds=%d",
		s.Engine, s.Wall.Round(time.Microsecond), s.Facts, s.Lookups, s.Probes, s.FullScans, s.Candidates, s.IndexBuilds)
	if s.StopReason != "" {
		fmt.Fprintf(&b, " stop=%s", s.StopReason)
	}
	if s.Passes > 0 {
		fmt.Fprintf(&b, " passes=%d tables=%d", s.Passes, s.Tables)
	}
	if s.ProvEntries > 0 {
		fmt.Fprintf(&b, " provenance=%d", s.ProvEntries)
	}
	for _, c := range s.Components {
		kind := "nonrec"
		if c.Recursive {
			kind = "recursive"
		}
		fmt.Fprintf(&b, "\n  scc [%s] %s iters=%d facts=%d lookups=%d wall=%s",
			strings.Join(c.Preds, " "), kind, c.Iterations, c.Facts, c.Lookups, c.Wall.Round(time.Microsecond))
		if len(c.DeltaSizes) > 0 {
			fmt.Fprintf(&b, " delta=%v", c.DeltaSizes)
		}
		if c.Mask != "" {
			fmt.Fprintf(&b, " calls=%d mask=%s", c.Calls, c.Mask)
		}
	}
	return b.String()
}
