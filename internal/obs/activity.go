package obs

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The live activity layer: while a query runs, the KB registers it in an
// ActivityRegistry — statement, tenant/client, start time, trace id, and
// stats-so-far updated by the engines — and deregisters it on finish.
// `kdb serve` exposes the registry at /v1/debug/activity, and an entry
// can be canceled (its context's cancel func fires, the governor stops
// the evaluation, and the request fails with 499). It is the engine-room
// counterpart of a database's pg_stat_activity.

// Activity is one in-flight query. The engines update FactsSoFar and
// LookupsSoFar through AddProgress, which (like the span API) is
// nil-receiver-safe so an unregistered evaluation pays only a nil check.
type Activity struct {
	id        uint64
	statement string
	kind      string
	tenant    string
	client    string
	traceID   uint64
	started   time.Time
	cancel    context.CancelFunc

	facts    atomic.Int64
	lookups  atomic.Int64
	canceled atomic.Bool
}

// AddProgress adds to the activity's running fact/lookup totals. The
// bottom-up engines call it once per round and per finished component;
// `kdb top` and the activity endpoint read the totals from other
// goroutines, hence atomics. No-op on nil.
func (a *Activity) AddProgress(facts, lookups int64) {
	if a == nil {
		return
	}
	a.facts.Add(facts)
	a.lookups.Add(lookups)
}

// ID returns the registry-issued id, or 0 for a nil or unregistered
// activity.
func (a *Activity) ID() uint64 {
	if a == nil {
		return 0
	}
	return a.id
}

// ActivityInfo is the wire snapshot of one in-flight query.
type ActivityInfo struct {
	ID        uint64    `json:"id"`
	Statement string    `json:"statement"`
	Kind      string    `json:"kind"`
	Tenant    string    `json:"tenant,omitempty"`
	Client    string    `json:"client,omitempty"`
	TraceID   uint64    `json:"trace_id,omitempty"`
	Started   time.Time `json:"started"`
	ElapsedMS float64   `json:"elapsed_ms"`
	Facts     int64     `json:"facts"`
	Lookups   int64     `json:"lookups"`
	Canceled  bool      `json:"canceled,omitempty"`
}

// ActivityRegistry tracks the queries currently executing against one
// KB (or one server's shared KB). A nil registry is valid: Begin
// returns nil and every other method does nothing, so the layer costs
// nothing unless enabled.
type ActivityRegistry struct {
	mu      sync.Mutex
	nextID  uint64
	entries map[uint64]*Activity
}

// NewActivityRegistry returns an empty registry.
func NewActivityRegistry() *ActivityRegistry {
	return &ActivityRegistry{entries: make(map[uint64]*Activity)}
}

// Begin registers an in-flight query and returns its Activity. The
// cancel func (may be nil) is invoked by Cancel to stop the query's
// evaluation. Returns nil on a nil registry.
func (reg *ActivityRegistry) Begin(statement, kind, tenant, client string, traceID uint64, cancel context.CancelFunc) *Activity {
	if reg == nil {
		return nil
	}
	a := &Activity{
		statement: statement,
		kind:      kind,
		tenant:    tenant,
		client:    client,
		traceID:   traceID,
		started:   time.Now(),
		cancel:    cancel,
	}
	reg.mu.Lock()
	reg.nextID++
	a.id = reg.nextID
	reg.entries[a.id] = a
	reg.mu.Unlock()
	return a
}

// End removes the activity from the registry. No-op when either side is
// nil.
func (reg *ActivityRegistry) End(a *Activity) {
	if reg == nil || a == nil {
		return
	}
	reg.mu.Lock()
	delete(reg.entries, a.id)
	reg.mu.Unlock()
}

// Cancel invokes the cancel func of the activity with the given id.
// Returns false if no such query is in flight. The entry stays
// registered until the evaluation unwinds and its owner calls End.
func (reg *ActivityRegistry) Cancel(id uint64) bool {
	if reg == nil {
		return false
	}
	reg.mu.Lock()
	a := reg.entries[id]
	reg.mu.Unlock()
	if a == nil {
		return false
	}
	a.canceled.Store(true)
	if a.cancel != nil {
		a.cancel()
	}
	return true
}

// Len returns the number of in-flight queries.
func (reg *ActivityRegistry) Len() int {
	if reg == nil {
		return 0
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	return len(reg.entries)
}

// Snapshot returns the in-flight queries, oldest first.
func (reg *ActivityRegistry) Snapshot() []ActivityInfo {
	if reg == nil {
		return nil
	}
	now := time.Now()
	reg.mu.Lock()
	out := make([]ActivityInfo, 0, len(reg.entries))
	for _, a := range reg.entries {
		out = append(out, ActivityInfo{
			ID:        a.id,
			Statement: a.statement,
			Kind:      a.kind,
			Tenant:    a.tenant,
			Client:    a.client,
			TraceID:   a.traceID,
			Started:   a.started,
			ElapsedMS: float64(now.Sub(a.started)) / float64(time.Millisecond),
			Facts:     a.facts.Load(),
			Lookups:   a.lookups.Load(),
			Canceled:  a.canceled.Load(),
		})
	}
	reg.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

type activityKey struct{}

// ContextWithActivity returns a context carrying a. If a is nil, ctx is
// returned unchanged so downstream ActivityFromContext stays nil and
// allocation-free.
func ContextWithActivity(ctx context.Context, a *Activity) context.Context {
	if a == nil {
		return ctx
	}
	return context.WithValue(ctx, activityKey{}, a)
}

// ActivityFromContext returns the activity carried by ctx, or nil.
func ActivityFromContext(ctx context.Context) *Activity {
	a, _ := ctx.Value(activityKey{}).(*Activity)
	return a
}
