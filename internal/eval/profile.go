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
// index-hit/full-scan. The semi-naive engine honors it; top-down and
// magic ignore it. Without it the derive path pays a single nil check
// per rule round and per derived fact (see TestProfileDisabledAllocs),
// mirroring the provenance hook's zero-overhead contract.
func WithProfile() EngineOption {
	return func(c *engineConfig) { c.prof = true }
}

// ruleRound is the open rule round: its rule and the rule's row, the
// clock and the statement's counters when it opened or resumed, what it
// has looked up since, and what it has derived.
type ruleRound struct {
	rule    term.Rule
	row     int
	start   time.Time
	at      storage.Counters
	tuples  int64
	lookups int64
}

// ruleProfiler keeps the rows of one evaluation, which runs on one
// goroutine: begin/end bracket one rule round, and fresh and countLookup
// count a derived fact and a body-atom resolution against it. Rounds do
// not nest — a round is paused while the rounds of a callee run — so a
// round's probes, full scans, candidates and index builds are what the
// statement's counters gained while it was open, and its wall time is
// the clock's. All methods are nil-receiver-safe, so an
// unprofiled evaluation pays only the nil checks.
type ruleProfiler struct {
	ctrs  *storage.Counters // the statement's probe sink
	rows  []profile.Row
	index map[string]int // the row of each rule
	open  ruleRound
}

func newRuleProfiler(ctrs *storage.Counters) *ruleProfiler {
	return &ruleProfiler{ctrs: ctrs, rows: []profile.Row{}, index: make(map[string]int)}
}

// begin opens a round of r, adding r's row on the rule's first round.
func (rp *ruleProfiler) begin(r term.Rule) {
	if rp == nil {
		return
	}
	label := r.String()
	i, ok := rp.index[label]
	if !ok {
		i = len(rp.rows)
		rp.index[label] = i
		rp.rows = append(rp.rows, profile.Row{Rule: label, Pred: r.Head.Pred, Synthetic: r.Head.Pred == queryPredName})
	}
	rp.resume(ruleRound{rule: r, row: i})
}

// pause folds what the open round has looked up, probed and spent so far
// into its rule's row and returns the round, for resume to reopen once
// the rounds of a callee the rule calls have run.
func (rp *ruleProfiler) pause() ruleRound {
	if rp == nil {
		return ruleRound{}
	}
	rd, c := &rp.open, rp.ctrs
	rp.rows[rd.row].Add(profile.Row{
		Wall:        time.Since(rd.start),
		Lookups:     rd.lookups,
		Probes:      c.Probes - rd.at.Probes,
		FullScans:   c.FullScans - rd.at.FullScans,
		Candidates:  c.Candidates - rd.at.Candidates,
		IndexBuilds: c.IndexBuilds - rd.at.IndexBuilds,
	})
	rd.lookups = 0
	return *rd
}

func (rp *ruleProfiler) resume(rd ruleRound) {
	if rp == nil {
		return
	}
	rp.open = rd
	rp.open.start, rp.open.at = time.Now(), *rp.ctrs
}

// end closes the round and adds it to its rule's row.
func (rp *ruleProfiler) end() {
	if rp == nil {
		return
	}
	rd := rp.pause()
	rp.rows[rd.row].Add(profile.Row{Iterations: 1, Tuples: rd.tuples, DeltaSizes: []int64{rd.tuples},
		AllocBytes: rd.tuples * profile.TupleBytes(len(rd.rule.Head.Args))})
}

// fresh counts one newly derived fact against the open round.
func (rp *ruleProfiler) fresh() {
	if rp == nil {
		return
	}
	rp.open.tuples++
}

// countLookup counts one body-atom resolution against the open round.
func (rp *ruleProfiler) countLookup() {
	if rp == nil {
		return
	}
	rp.open.lookups++
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
