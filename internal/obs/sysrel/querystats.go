package sysrel

import (
	"sort"
	"sync"
	"time"
)

// MaxStatements caps how many distinct statements QueryStats tracks;
// later statements aggregate under OverflowKey, so the memory of a
// workload with unbounded statement diversity stays bounded.
const MaxStatements = 256

// OverflowKey is the synthetic statement that aggregates everything
// beyond the distinct-statement cap.
const OverflowKey = "(other)"

type stmtStats struct {
	count   int64
	totalUs int64
	maxUs   int64
}

func (s *stmtStats) observe(us int64) {
	s.count++
	s.totalUs += us
	if us > s.maxUs {
		s.maxUs = us
	}
}

// QueryStats aggregates per-statement execution counts and latencies —
// the rows of the sys_query_stats virtual relation. All methods are
// safe for concurrent use and nil-receiver safe (a KB without
// WithQueryStats pays one pointer check per query).
type QueryStats struct {
	mu       sync.Mutex
	m        map[string]*stmtStats
	overflow stmtStats
}

// NewQueryStats returns an empty aggregate.
func NewQueryStats() *QueryStats {
	return &QueryStats{m: make(map[string]*stmtStats)}
}

// Observe folds one finished execution of stmt into the aggregate.
func (s *QueryStats) Observe(stmt string, d time.Duration) {
	if s == nil {
		return
	}
	us := d.Microseconds()
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.m[stmt]
	if st == nil {
		if len(s.m) >= MaxStatements {
			s.overflow.observe(us)
			return
		}
		st = &stmtStats{}
		s.m[stmt] = st
	}
	st.observe(us)
}

// QueryStatRow is one statement's aggregate.
type QueryStatRow struct {
	Statement string
	Count     int64
	TotalUs   int64
	MaxUs     int64
}

// Snapshot returns the per-statement aggregates sorted by statement,
// with the overflow bucket (when non-empty) last under OverflowKey.
func (s *QueryStats) Snapshot() []QueryStatRow {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]QueryStatRow, 0, len(s.m)+1)
	for stmt, st := range s.m {
		out = append(out, QueryStatRow{Statement: stmt, Count: st.count, TotalUs: st.totalUs, MaxUs: st.maxUs})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Statement < out[j].Statement })
	if s.overflow.count > 0 {
		out = append(out, QueryStatRow{Statement: OverflowKey, Count: s.overflow.count,
			TotalUs: s.overflow.totalUs, MaxUs: s.overflow.maxUs})
	}
	return out
}
