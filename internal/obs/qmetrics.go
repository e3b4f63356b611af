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

// ObserveQuery records one completed query: latency by statement kind,
// the error tally, and — when the governor stopped it — the stop
// reason ("deadline", "canceled", "limit:<kind>", "panic").
func (m *QueryMetrics) ObserveQuery(kind string, d time.Duration, stopReason string, failed bool) {
	if m == nil {
		return
	}
	ki := m.kind(kind)
	ki.total.Inc()
	ki.latency.ObserveDuration(d)
	if failed {
		ki.errs.Inc()
	}
	if stopReason != "" && stopReason != "ok" {
		m.mu.Lock()
		c := m.byStop[stopReason]
		if c == nil {
			c = m.reg.Counter("kdb_query_stops_total", "reason", stopReason)
			m.byStop[stopReason] = c
		}
		m.mu.Unlock()
		c.Inc()
	}
}

// ObserveEval folds one retrieve evaluation's counters into the
// registry.
func (m *QueryMetrics) ObserveEval(facts, lookups, probes, candidates, indexBuilds, iterations, provEntries int64) {
	if m == nil {
		return
	}
	m.facts.Add(facts)
	m.lookups.Add(lookups)
	m.probes.Add(probes)
	m.cands.Add(candidates)
	m.idxB.Add(indexBuilds)
	m.iters.Add(iterations)
	m.provE.Add(provEntries)
}

// ObserveExplain folds one explain query's reconstructed node count
// into the registry.
func (m *QueryMetrics) ObserveExplain(nodes int64) {
	if m == nil {
		return
	}
	m.explN.Add(nodes)
}

// ObserveDescribe folds one describe search's node count into the
// registry.
func (m *QueryMetrics) ObserveDescribe(nodes int64) {
	if m == nil {
		return
	}
	m.descN.Add(nodes)
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
