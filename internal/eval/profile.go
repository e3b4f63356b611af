package eval

import (
	"time"

	"kdb/internal/obs/profile"
	"kdb/internal/storage"
	"kdb/internal/term"
)

// WithProfile makes the engine record one per-rule cost row for every
// rule it evaluates into its record, EvalStats.Profile: wall time,
// rounds, tuples produced, and the storage probe counters split
// index-hit/full-scan. Every engine honors it. Without it the derive path
// pays a single nil check per rule round and per derived fact (see
// TestProfileDisabledAllocs), mirroring the provenance hook's
// zero-overhead contract.
func WithProfile() EngineOption {
	return func(c *engineConfig) { c.prof = true }
}

// profLabel maps a rewrite-generated rule back to its display identity:
// the magic engine labels each adorned rule with the source rule it was
// derived from and marks its guard/seed machinery synthetic, so
// profiles agree across engines.
type profLabel struct {
	label     string
	pred      string
	synthetic bool
}

// ruleRound is one open rule round. start and at are the clock and the
// statement's counters when it opened, each less what closed rounds had
// been charged by then: what they gain until it closes, less what the
// rounds closing meanwhile (those nested in it) are charged, is its own.
type ruleRound struct {
	rule    term.Rule
	start   time.Time
	at      storage.Counters
	tuples  int64
	lookups int64
}

// ruleProfiler keeps the rows of one evaluation, which runs on one
// goroutine: begin/end bracket one rule round, fresh and countLookup
// count a derived fact and a body-atom resolution against the innermost
// open round. A round's probes, full scans, candidates and index builds
// are what the statement's counters gained while it was open, less what
// the rounds nested in it (top-down subgoals) were charged; its wall time
// likewise. All methods are nil-receiver-safe, so an unprofiled
// evaluation pays only the nil checks.
type ruleProfiler struct {
	ctrs   *storage.Counters // the statement's probe sink
	labels map[string]profLabel

	rows  []profile.Row
	index map[string]int // the row of each rule label
	open  []ruleRound    // innermost last
	// chargedWall and charged are what closed rounds were charged.
	chargedWall time.Duration
	charged     storage.Counters
}

func newRuleProfiler(ctrs *storage.Counters, labels map[string]profLabel) *ruleProfiler {
	return &ruleProfiler{ctrs: ctrs, labels: labels, rows: []profile.Row{}, index: make(map[string]int)}
}

// mark reads the clock and the statement's counters, less what closed
// rounds were charged.
func (rp *ruleProfiler) mark() (time.Time, storage.Counters) {
	c, ch := *rp.ctrs, rp.charged
	return time.Now().Add(-rp.chargedWall), storage.Counters{
		Probes:      c.Probes - ch.Probes,
		Candidates:  c.Candidates - ch.Candidates,
		IndexBuilds: c.IndexBuilds - ch.IndexBuilds,
		FullScans:   c.FullScans - ch.FullScans,
	}
}

// begin opens a round of r, inside any round still open (a top-down rule
// solving a subgoal's rules).
func (rp *ruleProfiler) begin(r term.Rule) {
	if rp == nil {
		return
	}
	start, at := rp.mark()
	rp.open = append(rp.open, ruleRound{rule: r, start: start, at: at})
}

// end closes the innermost round and adds it to its rule's row. Wall
// time and counts are self: a profile's rows partition the evaluation
// instead of double-counting callers.
func (rp *ruleProfiler) end() {
	if rp == nil {
		return
	}
	n := len(rp.open) - 1
	rd := rp.open[n]
	rp.open = rp.open[:n]
	now, c := rp.mark()
	own := profile.Row{
		Iterations:  1,
		Tuples:      rd.tuples,
		Wall:        now.Sub(rd.start),
		Lookups:     rd.lookups,
		Probes:      c.Probes - rd.at.Probes,
		FullScans:   c.FullScans - rd.at.FullScans,
		Candidates:  c.Candidates - rd.at.Candidates,
		IndexBuilds: c.IndexBuilds - rd.at.IndexBuilds,
		DeltaSizes:  []int64{rd.tuples},
		AllocBytes:  rd.tuples * profile.TupleBytes(len(rd.rule.Head.Args)),
	}
	rp.row(rd.rule).Add(own)
	rp.chargedWall += own.Wall
	rp.charged.Probes += own.Probes
	rp.charged.FullScans += own.FullScans
	rp.charged.Candidates += own.Candidates
	rp.charged.IndexBuilds += own.IndexBuilds
}

// row returns the row of r's label, added on the rule's first round.
func (rp *ruleProfiler) row(r term.Rule) *profile.Row {
	label, pred, synthetic := r.String(), r.Head.Pred, r.Head.Pred == queryPredName
	if pl, ok := rp.labels[label]; ok {
		label, pred, synthetic = pl.label, pl.pred, pl.synthetic
	}
	i, ok := rp.index[label]
	if !ok {
		i = len(rp.rows)
		rp.index[label] = i
		rp.rows = append(rp.rows, profile.Row{Rule: label, Pred: pred, Synthetic: synthetic})
	}
	return &rp.rows[i]
}

// fresh counts one newly derived fact against the innermost round.
func (rp *ruleProfiler) fresh() {
	if rp == nil {
		return
	}
	rp.open[len(rp.open)-1].tuples++
}

// countLookup counts one body-atom resolution against the innermost
// round.
func (rp *ruleProfiler) countLookup() {
	if rp == nil {
		return
	}
	rp.open[len(rp.open)-1].lookups++
}

// finish returns the rows in display order; nil when profiling is off,
// never nil when it is on.
func (rp *ruleProfiler) finish() []profile.Row {
	if rp == nil {
		return nil
	}
	profile.Sort(rp.rows)
	return rp.rows
}
