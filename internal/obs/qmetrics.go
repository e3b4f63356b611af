package obs

import (
	"sync"
	"time"
)

// QueryMetrics bundles the kdb query-path instruments over one
// Registry. All methods are nil-safe so the kb layer calls them
// unconditionally.
type QueryMetrics struct {
	reg *Registry

	mu      sync.Mutex
	byKind  map[string]*kindInstruments
	byStop  map[string]*Counter
	facts   *Counter
	lookups *Counter
	probes  *Counter
	cands   *Counter
	idxB    *Counter
	iters   *Counter
	descN   *Counter
	provE   *Counter
	explN   *Counter
}

type kindInstruments struct {
	total   *Counter
	errs    *Counter
	latency *Histogram
}

// NewQueryMetrics registers the query-path metric families on reg.
// Returns nil when reg is nil.
func NewQueryMetrics(reg *Registry) *QueryMetrics {
	if reg == nil {
		return nil
	}
	reg.SetHelp("kdb_query_duration_seconds", "Wall time of one query, by statement kind.")
	reg.SetHelp("kdb_queries_total", "Queries executed, by statement kind.")
	reg.SetHelp("kdb_query_errors_total", "Queries that returned an error, by statement kind.")
	reg.SetHelp("kdb_query_stops_total", "Queries stopped early by the governor, by stop reason.")
	reg.SetHelp("kdb_facts_derived_total", "Facts derived by retrieve evaluations.")
	reg.SetHelp("kdb_lookups_total", "Body-atom lookups performed by retrieve evaluations.")
	reg.SetHelp("kdb_storage_probes_total", "Stored-relation probes issued by queries.")
	reg.SetHelp("kdb_storage_candidates_total", "Candidate tuples scanned by stored-relation probes.")
	reg.SetHelp("kdb_storage_index_builds_total", "Lazy hash indexes built by stored-relation probes.")
	reg.SetHelp("kdb_scc_iterations_total", "Fixpoint iterations summed over rule-graph SCCs.")
	reg.SetHelp("kdb_describe_nodes_total", "Nodes expanded by describe searches.")
	reg.SetHelp("kdb_provenance_entries_total", "Why-provenance witnesses recorded by evaluations.")
	reg.SetHelp("kdb_explain_nodes_total", "Derivation-tree nodes reconstructed by explain queries.")
	m := &QueryMetrics{
		reg:     reg,
		byKind:  map[string]*kindInstruments{},
		byStop:  map[string]*Counter{},
		facts:   reg.Counter("kdb_facts_derived_total"),
		lookups: reg.Counter("kdb_lookups_total"),
		probes:  reg.Counter("kdb_storage_probes_total"),
		cands:   reg.Counter("kdb_storage_candidates_total"),
		idxB:    reg.Counter("kdb_storage_index_builds_total"),
		iters:   reg.Counter("kdb_scc_iterations_total"),
		descN:   reg.Counter("kdb_describe_nodes_total"),
		provE:   reg.Counter("kdb_provenance_entries_total"),
		explN:   reg.Counter("kdb_explain_nodes_total"),
	}
	// Pre-register the latency histogram for the common kinds so the
	// family exists before the first query.
	for _, kind := range []string{"retrieve", "describe", "compare"} {
		m.kind(kind)
	}
	return m
}

func (m *QueryMetrics) kind(kind string) *kindInstruments {
	m.mu.Lock()
	defer m.mu.Unlock()
	ki := m.byKind[kind]
	if ki == nil {
		ki = &kindInstruments{
			total:   m.reg.Counter("kdb_queries_total", "kind", kind),
			errs:    m.reg.Counter("kdb_query_errors_total", "kind", kind),
			latency: m.reg.Histogram("kdb_query_duration_seconds", nil, "kind", kind),
		}
		m.byKind[kind] = ki
	}
	return ki
}

// Observe folds one finished statement into the registry: its latency,
// count and error by statement kind; the governor's stop reason
// ("deadline", "canceled", "limit:<kind>", "panic"), if it stopped; and
// the statement's evaluation, describe and explain counts. rec is the
// record the query log writes for the same statement.
func (m *QueryMetrics) Observe(rec QueryLogRecord) {
	if m == nil {
		return
	}
	ki := m.kind(rec.Kind)
	ki.total.Inc()
	ki.latency.ObserveDuration(time.Duration(rec.DurUS) * time.Microsecond)
	if rec.Error != "" {
		ki.errs.Inc()
	}
	if rec.Stop != "" && rec.Stop != "ok" {
		m.mu.Lock()
		c := m.byStop[rec.Stop]
		if c == nil {
			c = m.reg.Counter("kdb_query_stops_total", "reason", rec.Stop)
			m.byStop[rec.Stop] = c
		}
		m.mu.Unlock()
		c.Inc()
	}
	m.facts.Add(rec.Facts)
	m.lookups.Add(rec.Lookups)
	m.probes.Add(rec.Probes)
	m.cands.Add(rec.Candidates)
	m.idxB.Add(rec.IndexBuilds)
	m.iters.Add(rec.Iterations)
	m.provE.Add(rec.ProvEntries)
	m.descN.Add(rec.DescribeNodes)
	m.explN.Add(rec.ExplainNodes)
}

// StorageMetrics bundles the storage-path instruments. Its methods
// satisfy the storage-layer observer interface structurally, so the
// storage package never imports obs. Nil-safe.
type StorageMetrics struct {
	appendLat  *Histogram
	appendByte *Counter
	syncLat    *Histogram
	snapLat    *Histogram
	snapBytes  *Gauge
	snapTotal  *Counter
}

// NewStorageMetrics registers the storage metric families on reg.
// Returns nil when reg is nil.
func NewStorageMetrics(reg *Registry) *StorageMetrics {
	if reg == nil {
		return nil
	}
	reg.SetHelp("kdb_wal_append_seconds", "WAL record append latency (encode+write+flush+fsync).")
	reg.SetHelp("kdb_wal_append_bytes_total", "Bytes appended to the WAL.")
	reg.SetHelp("kdb_wal_fsync_seconds", "WAL fsync latency.")
	reg.SetHelp("kdb_snapshot_seconds", "Snapshot (checkpoint) write latency.")
	reg.SetHelp("kdb_snapshot_bytes", "Size of the most recent snapshot, in bytes.")
	reg.SetHelp("kdb_snapshots_total", "Snapshots (checkpoints) written.")
	return &StorageMetrics{
		appendLat:  reg.Histogram("kdb_wal_append_seconds", nil),
		appendByte: reg.Counter("kdb_wal_append_bytes_total"),
		syncLat:    reg.Histogram("kdb_wal_fsync_seconds", nil),
		snapLat:    reg.Histogram("kdb_snapshot_seconds", nil),
		snapBytes:  reg.Gauge("kdb_snapshot_bytes"),
		snapTotal:  reg.Counter("kdb_snapshots_total"),
	}
}

// ObserveWALAppend records one WAL append.
func (m *StorageMetrics) ObserveWALAppend(d time.Duration, bytes int) {
	if m == nil {
		return
	}
	m.appendLat.ObserveDuration(d)
	m.appendByte.Add(int64(bytes))
}

// ObserveWALSync records one WAL fsync.
func (m *StorageMetrics) ObserveWALSync(d time.Duration) {
	if m == nil {
		return
	}
	m.syncLat.ObserveDuration(d)
}

// ObserveSnapshot records one snapshot write.
func (m *StorageMetrics) ObserveSnapshot(d time.Duration, bytes int64) {
	if m == nil {
		return
	}
	m.snapLat.ObserveDuration(d)
	m.snapBytes.Set(float64(bytes))
	m.snapTotal.Inc()
}
