// Package server exposes knowledge bases over HTTP+JSON: the data
// plane of `kdb serve`. One serve process hosts many named tenants —
// each a separate KB opened lazily under a shared root directory (or
// in memory) — and runs their queries concurrently: reads never block
// each other (the KB read-locks across an evaluation), writes
// serialize per tenant, and every request's context reaches the query
// governor, so a disconnecting client cancels its in-flight query.
//
// Routes (all request/response bodies are JSON):
//
//	POST /v1/kb/{name}/retrieve   data query (statement kind: retrieve)
//	POST /v1/kb/{name}/describe   knowledge query (describe / compare)
//	POST /v1/kb/{name}/explain    why-provenance query
//	POST /v1/kb/{name}/profile    per-rule cost-accounting query
//	POST /v1/kb/{name}/assert     insert one ground fact
//	POST /v1/kb/{name}/retract    remove one ground fact
//	POST /v1/kb/{name}/load       load a program fragment
//	POST /v1/kb/{name}/check      evaluate the integrity constraints
//	GET  /v1/kbs                  list open knowledge bases
//	GET  /v1/debug/activity       in-flight queries across all tenants
//	POST /v1/debug/activity/{id}/cancel   cancel one in-flight query
//
// plus the obs debug surface (/metrics, /debug/pprof/*) on the same
// mux.
//
// Query routes honor an incoming W3C `traceparent` header: its trace id
// (low 64 bits) becomes the request's root span id, so the server's
// spans, query-log records, and activity entries all correlate with the
// caller's distributed trace. The header is echoed
// on the response when adopted.
//
// Query statements may contain $1..$n placeholders; the parsed and
// validated template is cached per tenant (an LRU keyed by statement
// text, invalidated by schema generation), so repeated parameterized
// queries skip the parser. Per-request limits are clamped against the
// server's ceiling — a client may tighten but never loosen its quota.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"time"

	"kdb/internal/analysis"
	"kdb/internal/fault"
	"kdb/internal/governor"
	"kdb/internal/kb"
	"kdb/internal/obs"
	"kdb/internal/obs/profile"
	"kdb/internal/obs/sysrel"
	"kdb/internal/parser"
	"kdb/internal/storage"
	"kdb/internal/term"
)

// Config assembles a Server.
type Config struct {
	// Root is the directory holding one store directory per tenant;
	// empty serves independent in-memory KBs (useful for tests and
	// ephemeral workloads).
	Root string
	// MaxOpenKBs bounds the simultaneously open tenants (default 8).
	MaxOpenKBs int
	// IdleTimeout closes tenants unused for this long (default 5m;
	// negative disables idle eviction).
	IdleTimeout time.Duration
	// Ceiling is the per-request resource quota: request limits are
	// clamped against it, so clients may tighten but never loosen it.
	// The zero value leaves requests ungoverned unless they ask.
	Ceiling governor.Limits
	// PreparedCacheSize bounds the prepared-statement LRU (default 256).
	PreparedCacheSize int
	// Registry collects the server's and every tenant's metrics; nil
	// creates a private registry.
	Registry *obs.Registry
	// Tracer, when set, records a "serve" span tree per request.
	Tracer *obs.Tracer
	// QueryLog, when set, receives one record per query, with the
	// tenant and client fields filled in.
	QueryLog *obs.QueryLog
	// MaxInFlight bounds the requests simultaneously inside the data
	// plane; excess requests are shed with 503 + Retry-After instead of
	// queueing. 0 or negative leaves admission unbounded.
	MaxInFlight int
	// BreakerThreshold is how many consecutive storage-durability
	// failures trip a tenant's circuit breaker into read-only degraded
	// mode (default 3; negative disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker rejects writes
	// before admitting one probe write (default 5s).
	BreakerCooldown time.Duration
	// RetryAfter is the backoff hint stamped on 429/503 responses as a
	// Retry-After header (default 1s).
	RetryAfter time.Duration
	// BaseContext bounds the server's background work (the tenant
	// janitor): canceling it stops those goroutines even before Close.
	// Nil means the server's lifetime is bounded only by Close.
	BaseContext context.Context
}

// Server is the HTTP data plane over a set of tenant KBs.
type Server struct {
	cfg      Config
	reg      *obs.Registry
	tenants  *Manager
	prepared *preparedCache
	mux      *http.ServeMux

	// inflight (nil when unbounded) sheds requests past MaxInFlight;
	// breakers degrades tenants whose storage keeps failing.
	inflight   *admission
	breakers   *breakers
	retryAfter string // preformatted Retry-After header value, in seconds

	// activity registers every tenant's in-flight queries (the data
	// behind /v1/debug/activity); build identifies the running binary
	// for /healthz and the kdb_build_info gauge.
	activity *obs.ActivityRegistry
	build    obs.BuildInfo

	requests  func(route, code string) *obs.Counter
	durations func(route string) *obs.Histogram
}

// New builds a Server. When cfg.Root is set it must be an existing
// directory (tenant stores are created beneath it on demand). A nil
// cfg.BaseContext leaves the background work to stop at Close alone.
func New(cfg Config) (*Server, error) {
	if cfg.Root != "" {
		fi, err := os.Stat(cfg.Root)
		if err != nil {
			return nil, fmt.Errorf("server: root: %w", err)
		}
		if !fi.IsDir() {
			return nil, fmt.Errorf("server: root %s is not a directory", cfg.Root)
		}
	}
	if cfg.MaxOpenKBs <= 0 {
		cfg.MaxOpenKBs = 8
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = 5 * time.Minute
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	s := &Server{cfg: cfg, reg: reg}
	s.activity = obs.NewActivityRegistry()
	s.build = obs.RegisterBuildInfo(reg)
	s.inflight = newAdmission(cfg.MaxInFlight, reg)
	s.breakers = newBreakers(cfg.BreakerThreshold, cfg.BreakerCooldown, reg)
	secs := int(cfg.RetryAfter.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	s.retryAfter = strconv.Itoa(secs)
	s.prepared = newPreparedCache(cfg.PreparedCacheSize, reg)
	idle := cfg.IdleTimeout
	if idle < 0 {
		idle = 0
	}
	baseCtx := cfg.BaseContext
	if baseCtx == nil {
		baseCtx = context.Background()
	}
	s.tenants = newManager(baseCtx, cfg.Root, cfg.MaxOpenKBs, idle, s.openKB)

	reg.SetHelp("kdb_server_requests_total", "Served requests by route and status code.")
	reg.SetHelp("kdb_server_request_seconds", "Request latency by route.")
	reg.SetHelp("kdb_server_open_kbs", "Currently open tenant knowledge bases.")
	reg.SetHelp("kdb_server_evictions_total", "Tenant knowledge bases closed by eviction (LRU or idle).")
	reg.SetHelp("kdb_server_inflight", "Requests currently inside the data plane.")
	reg.SetHelp("kdb_server_shed_total", "Requests shed by admission control (503 + Retry-After).")
	reg.SetHelp("kdb_server_breaker_state", "Per-tenant circuit breaker state (0 closed, 1 open, 2 half-open).")
	reg.SetHelp("kdb_server_breaker_transitions_total", "Circuit breaker transitions by tenant and target state.")
	reg.SetHelp("kdb_server_breaker_probes_total", "Recovery probe writes admitted by half-open breakers.")
	s.requests = func(route, code string) *obs.Counter {
		return reg.Counter("kdb_server_requests_total", "route", route, "code", code)
	}
	s.durations = func(route string) *obs.Histogram {
		return reg.Histogram("kdb_server_request_seconds", nil, "route", route)
	}
	openKBs := reg.Gauge("kdb_server_open_kbs")
	evictions := reg.Counter("kdb_server_evictions_total")
	s.tenants.onEvict = evictions.Inc
	s.tenants.onOpenCount = func(n int) { openKBs.Set(float64(n)) }

	mux := obs.DebugMux(reg)
	mux.HandleFunc("GET /v1/kbs", s.handleList)
	mux.HandleFunc("POST /v1/kb/{name}/retrieve", s.admit(s.handleQuery("retrieve")))
	mux.HandleFunc("POST /v1/kb/{name}/describe", s.admit(s.handleQuery("describe")))
	mux.HandleFunc("POST /v1/kb/{name}/explain", s.admit(s.handleQuery("explain")))
	mux.HandleFunc("POST /v1/kb/{name}/profile", s.admit(s.handleQuery("profile")))
	mux.HandleFunc("POST /v1/kb/{name}/assert", s.admit(s.handleMutate(false)))
	mux.HandleFunc("POST /v1/kb/{name}/retract", s.admit(s.handleMutate(true)))
	mux.HandleFunc("POST /v1/kb/{name}/load", s.admit(s.handleLoad))
	mux.HandleFunc("POST /v1/kb/{name}/check", s.admit(s.handleCheck))
	mux.HandleFunc("POST /v1/kb/{name}/checkpoint", s.admit(s.handleCheckpoint))
	mux.HandleFunc("GET /v1/debug/activity", s.handleActivity)
	mux.HandleFunc("POST /v1/debug/activity/{id}/cancel", s.handleActivityCancel)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /{$}", s.handleIndex)
	s.mux = mux
	return s, nil
}

// openKB builds the KB for one tenant: durable under Root, in-memory
// otherwise, with the server's ceiling and observability.
func (s *Server) openKB(name string) (*kb.KB, error) {
	if err := fault.Inject(fault.SiteTenantOpen); err != nil {
		return nil, err
	}
	opts := []kb.Option{
		kb.WithQueryLimits(s.cfg.Ceiling),
		kb.WithMetrics(s.reg),
		// Every tenant shares the server's activity registry, so
		// /v1/debug/activity sees the whole process at once.
		kb.WithActivity(s.activity),
		// Per-tenant statement statistics back sys_query_stats.
		kb.WithQueryStats(),
	}
	if s.cfg.Tracer != nil {
		opts = append(opts, kb.WithTracer(s.cfg.Tracer))
	}
	if s.cfg.QueryLog != nil {
		opts = append(opts, kb.WithQueryLog(s.cfg.QueryLog))
	}
	var k *kb.KB
	if s.cfg.Root == "" {
		k = kb.New(opts...)
	} else {
		dir := s.tenants.Dir(name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		var err error
		k, err = kb.Open(dir, opts...)
		if err != nil {
			return nil, err
		}
	}
	// Every tenant's sys_tenant relation sees the whole server, like
	// /healthz does.
	k.SystemRelations().SetTenants(s.tenantRows)
	return k, nil
}

// tenantRows is the sys_tenant source installed on every tenant KB. It
// runs inside query evaluation — the querying goroutine holds its KB's
// read lock — so it touches only lock-free or internally synchronized
// state: the manager's published view (never m.mu, which Close holds
// while draining queries), the breakers, and each store's own
// durability state (never kb.DurabilityErr, which read-locks the KB).
func (s *Server) tenantRows() []sysrel.TenantInfo {
	open := s.tenants.View()
	seen := make(map[string]bool, len(open))
	out := make([]sysrel.TenantInfo, 0, len(open))
	for name, k := range open {
		seen[name] = true
		st := s.breakers.state(name)
		out = append(out, sysrel.TenantInfo{
			Name:     name,
			Open:     true,
			Degraded: st != "closed",
			Poisoned: k.Store().DurabilityErr() != nil,
		})
	}
	for _, name := range s.breakers.tracked() {
		if seen[name] {
			continue
		}
		st := s.breakers.state(name)
		out = append(out, sysrel.TenantInfo{Name: name, Degraded: st != "closed"})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// admit wraps a data-plane handler with admission control: when every
// in-flight slot is taken the request is shed immediately (503 +
// Retry-After) instead of queueing a goroutine behind a saturated
// server.
func (s *Server) admit(h http.HandlerFunc) http.HandlerFunc {
	if s.inflight == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.inflight.acquire() {
			s.writeError(w, errShed)
			return
		}
		defer s.inflight.release()
		h(w, r)
	}
}

// Handler returns the server's HTTP handler: the API routes plus the
// debug surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Close shuts the server's tenants down: the janitor stops and every
// open KB is closed (waiting for in-flight queries to drain).
func (s *Server) Close() error { return s.tenants.Close() }

// maxBodyBytes bounds a request body; a program load is the largest
// legitimate payload.
const maxBodyBytes = 8 << 20

// queryRequest is the body of the retrieve/describe/explain routes.
type queryRequest struct {
	// Stmt is the statement text, possibly with $1..$n placeholders.
	Stmt string `json:"stmt"`
	// Args bind the placeholders, in order: numbers become numeric
	// constants; strings become symbols when they look like identifiers
	// and string constants otherwise; {"sym": s}, {"str": s}, and
	// {"num": x} force an interpretation.
	Args []json.RawMessage `json:"args,omitempty"`
	// Limits tighten the server's quota for this request only.
	Limits *limitsJSON `json:"limits,omitempty"`
	// Client identifies the caller in the query log (the X-KDB-Client
	// header wins when both are set).
	Client string `json:"client,omitempty"`
}

// limitsJSON is the wire form of per-request query limits.
type limitsJSON struct {
	MaxWallMS        int `json:"max_wall_ms,omitempty"`
	MaxFacts         int `json:"max_facts,omitempty"`
	MaxIterations    int `json:"max_iterations,omitempty"`
	MaxDescribeNodes int `json:"max_describe_nodes,omitempty"`
	MaxProvenance    int `json:"max_provenance_entries,omitempty"`
}

func (l *limitsJSON) toLimits() governor.Limits {
	return governor.Limits{
		MaxWall:              time.Duration(l.MaxWallMS) * time.Millisecond,
		MaxFacts:             l.MaxFacts,
		MaxIterations:        l.MaxIterations,
		MaxDescribeNodes:     l.MaxDescribeNodes,
		MaxProvenanceEntries: l.MaxProvenance,
	}
}

// queryResponse is the body of a successful query route.
type queryResponse struct {
	// Kind is the statement kind actually executed (retrieve, describe,
	// describe-not, possible, compare, explain, …).
	Kind string `json:"kind"`
	// Prepared reports a prepared-statement cache hit.
	Prepared bool `json:"prepared"`
	// Answers renders one answer per line: instantiated subject atoms
	// for a retrieve, derived rules for a describe. Always an array:
	// empty for a result without answers and for a verdict.
	Answers []string `json:"answers"`
	// Rendered is the full terminal rendering of the result.
	Rendered string `json:"rendered"`
	// Explanation carries the derivation trees of an explain.
	Explanation json.RawMessage `json:"explanation,omitempty"`
	// Profile carries the per-rule cost rows of a profile statement.
	Profile json.RawMessage `json:"profile,omitempty"`
}

// handleQuery serves one query route. The route fixes the statement
// family; a mismatching statement (e.g. a describe POSTed to
// /retrieve) is a 400, so clients cannot smuggle an expensive
// statement past a route-level policy.
func (s *Server) handleQuery(route string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		code := s.serveQuery(w, r, route)
		s.requests(route, strconv.Itoa(code)).Inc()
		s.durations(route).ObserveDuration(time.Since(start))
	}
}

// serveQuery runs one query request end to end and returns the HTTP
// status it produced.
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, route string) int {
	// Chaos hook: inject latency (to hold an admission slot) or an
	// error before any real work happens.
	if err := fault.Inject(fault.SiteRequest); err != nil {
		return s.writeError(w, err)
	}
	name := r.PathValue("name")
	k, release, err := s.tenants.Acquire(name)
	if err != nil {
		return s.writeError(w, err)
	}
	defer release()

	var req queryRequest
	if err := decodeBody(r, &req); err != nil {
		return s.writeError(w, err)
	}
	p, hit, err := s.prepared.Get(name, req.Stmt)
	if err != nil {
		return s.writeError(w, err)
	}
	if err := checkRoute(route, p.query); err != nil {
		return s.writeError(w, err)
	}
	args, err := decodeArgs(req.Args)
	if err != nil {
		return s.writeError(w, err)
	}
	if err := fault.Inject(fault.SitePreparedBind); err != nil {
		return s.writeError(w, err)
	}
	bound, err := parser.BindPlaceholders(p.query, args)
	if err != nil {
		return s.writeError(w, &badRequestError{err})
	}

	// The request context is the cancellation root: a client disconnect
	// cancels the evaluation through the query governor.
	ctx := r.Context()
	ctx = obs.ContextWithClient(ctx, obs.ClientInfo{Tenant: name, Client: clientID(r, req.Client)})
	if req.Limits != nil {
		ctx = kb.ContextWithLimits(ctx, req.Limits.toLimits())
	}
	// A W3C traceparent on the request donates its trace id (the low 64
	// bits) to the serve span, so every downstream record — query log,
	// activity entry — carries the caller's trace.
	var traceID uint64
	if tp := r.Header.Get("traceparent"); tp != "" {
		if id, ok := obs.ParseTraceparent(tp); ok {
			traceID = id
			w.Header().Set("Traceparent", tp)
		}
	}
	root := s.cfg.Tracer.StartWithID("serve", traceID)
	root.SetStr("route", route)
	root.SetStr("tenant", name)
	ctx = obs.ContextWithSpan(ctx, root)

	res, err := k.ExecContext(ctx, bound)
	s.cfg.Tracer.Finish(root)
	if err != nil {
		return s.writeError(w, err)
	}
	resp := &queryResponse{
		Kind:     parser.Kind(bound),
		Prepared: hit,
		Answers:  answerLines(res),
		Rendered: res.String(),
	}
	if res.Explanation != nil {
		if b, err := json.Marshal(res.Explanation); err == nil {
			resp.Explanation = b
		}
	}
	if res.Profiled() {
		if b, err := profile.JSON(res.Stats.Engine, res.Stats.Wall, res.Stats.Profile); err == nil {
			resp.Profile = b
		}
	}
	return writeJSON(w, http.StatusOK, resp)
}

// clientID resolves the caller identity for the query log.
func clientID(r *http.Request, bodyClient string) string {
	if h := r.Header.Get("X-KDB-Client"); h != "" {
		return h
	}
	return bodyClient
}

// checkRoute verifies the statement family matches the route.
func checkRoute(route string, q parser.Query) error {
	var ok bool
	switch route {
	case "retrieve":
		_, ok = q.(*parser.Retrieve)
	case "describe":
		switch q.(type) {
		case *parser.Describe, *parser.Compare:
			ok = true
		}
	case "explain":
		_, ok = q.(*parser.Explain)
	case "profile":
		_, ok = q.(*parser.Profile)
	}
	if !ok {
		return &badRequestError{fmt.Errorf("statement kind %s does not match route /%s", parser.Kind(q), route)}
	}
	return nil
}

// answerLines extracts one line per answer from an ExecResult, sorted
// for a stable wire shape, and never nil: a result without answers
// encodes as an empty array. A retrieve's are the lines its rendering
// lists, rendered once for both.
func answerLines(res *kb.ExecResult) []string {
	out := []string{}
	switch {
	case res.Retrieve != nil:
		if lines := res.RetrieveLines(); lines != nil {
			return lines
		}
	case res.Describe != nil:
		for _, f := range res.Describe.Formulas {
			out = append(out, f.String())
		}
	case res.System != "":
		// describe of a sys_* virtual relation: the fixed schema line.
		out = append(out, res.System)
	case res.Explanation != nil:
		for _, tr := range res.Explanation.Trees {
			out = append(out, tr.Fact.String())
		}
	}
	sort.Strings(out)
	return out
}

// mutateRequest is the body of assert/retract.
type mutateRequest struct {
	// Fact is one ground atom in surface syntax, e.g. "takes(ann, db)".
	Fact string `json:"fact"`
}

// mutateResponse is the body of a successful assert/retract.
type mutateResponse struct {
	// Removed reports whether a retract actually removed a fact.
	Removed bool `json:"removed,omitempty"`
	OK      bool `json:"ok"`
}

// handleMutate serves assert (retract=false) and retract (retract=true).
func (s *Server) handleMutate(retract bool) http.HandlerFunc {
	route := "assert"
	if retract {
		route = "retract"
	}
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		code := func() int {
			name := r.PathValue("name")
			k, release, err := s.tenants.Acquire(name)
			if err != nil {
				return s.writeError(w, err)
			}
			defer release()
			var req mutateRequest
			if err := decodeBody(r, &req); err != nil {
				return s.writeError(w, err)
			}
			a, err := parser.ParseAtom(req.Fact)
			if err != nil {
				return s.writeError(w, err)
			}
			if !retract && !a.IsGround() {
				return s.writeError(w, &badRequestError{fmt.Errorf("assert %v: fact is not ground", a)})
			}
			// The breaker gates the write only after request validation:
			// a malformed request should not consume the recovery probe.
			probe, ok := s.breakers.admitWrite(name)
			if !ok {
				return s.writeError(w, &errDegraded{tenant: name})
			}
			if retract {
				removed, err := k.Retract(a)
				s.breakers.record(name, probe, err)
				if err != nil {
					return s.writeError(w, mutateError(err))
				}
				return writeJSON(w, http.StatusOK, &mutateResponse{Removed: removed, OK: true})
			}
			err = k.Assert(a)
			s.breakers.record(name, probe, err)
			if err != nil {
				return s.writeError(w, mutateError(err))
			}
			return writeJSON(w, http.StatusOK, &mutateResponse{OK: true})
		}()
		s.requests(route, strconv.Itoa(code)).Inc()
		s.durations(route).ObserveDuration(time.Since(start))
	}
}

// mutateError classifies a failed assert/retract: a closed KB and a
// storage-durability failure stay 503s (the server's fault, retryable
// elsewhere), everything else (arity mismatch, intensional predicate,
// non-ground fact) is the client's.
func mutateError(err error) error {
	if errors.Is(err, kb.ErrClosed) || errors.Is(err, storage.ErrDurability) {
		return err
	}
	return &badRequestError{err}
}

// loadRequest is the body of /load.
type loadRequest struct {
	// Program is knowledge-base source text: facts, rules, declarations,
	// constraints.
	Program string `json:"program"`
}

// loadResponse is the body of a successful /load.
type loadResponse struct {
	OK    bool `json:"ok"`
	Facts int  `json:"facts"`
	Rules int  `json:"rules"`
}

// handleLoad loads a program fragment into the tenant.
func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	code := func() int {
		name := r.PathValue("name")
		k, release, err := s.tenants.Acquire(name)
		if err != nil {
			return s.writeError(w, err)
		}
		defer release()
		var req loadRequest
		if err := decodeBody(r, &req); err != nil {
			return s.writeError(w, err)
		}
		// A load asserts facts, so it is a write for breaker purposes.
		probe, ok := s.breakers.admitWrite(name)
		if !ok {
			return s.writeError(w, &errDegraded{tenant: name})
		}
		err = k.LoadString(req.Program)
		s.breakers.record(name, probe, err)
		if err != nil {
			return s.writeError(w, err)
		}
		return writeJSON(w, http.StatusOK, &loadResponse{OK: true, Facts: k.FactCount(), Rules: len(k.Rules())})
	}()
	s.requests("load", strconv.Itoa(code)).Inc()
	s.durations("load").ObserveDuration(time.Since(start))
}

// checkpointResponse is the body of a successful /checkpoint.
type checkpointResponse struct {
	OK bool `json:"ok"`
}

// handleCheckpoint folds the tenant's WAL into a snapshot on demand.
// Checkpoint doubles as the recovery operation for a degraded tenant —
// it captures the in-RAM state and resets a poisoned log — so it
// bypasses the write breaker and its outcome feeds the breaker
// directly: success closes it, a durability failure (re-)trips it.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	code := func() int {
		name := r.PathValue("name")
		k, release, err := s.tenants.Acquire(name)
		if err != nil {
			return s.writeError(w, err)
		}
		defer release()
		ctx := obs.ContextWithClient(r.Context(), obs.ClientInfo{Tenant: name, Client: clientID(r, "")})
		err = k.CheckpointContext(ctx)
		s.breakers.recordRecovery(name, err)
		if err != nil {
			return s.writeError(w, err)
		}
		return writeJSON(w, http.StatusOK, &checkpointResponse{OK: true})
	}()
	s.requests("checkpoint", strconv.Itoa(code)).Inc()
	s.durations("checkpoint").ObserveDuration(time.Since(start))
}

// checkResponse is the body of /check.
type checkResponse struct {
	OK         bool     `json:"ok"`
	Violations []string `json:"violations,omitempty"`
}

// handleCheck evaluates the tenant's integrity constraints.
func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	code := func() int {
		name := r.PathValue("name")
		k, release, err := s.tenants.Acquire(name)
		if err != nil {
			return s.writeError(w, err)
		}
		defer release()
		ctx := obs.ContextWithClient(r.Context(), obs.ClientInfo{Tenant: name, Client: clientID(r, "")})
		violations, err := k.CheckConstraintsContext(ctx)
		if err != nil {
			return s.writeError(w, err)
		}
		return writeJSON(w, http.StatusOK, &checkResponse{OK: len(violations) == 0, Violations: violations})
	}()
	s.requests("check", strconv.Itoa(code)).Inc()
	s.durations("check").ObserveDuration(time.Since(start))
}

// kbInfo is one entry of the /v1/kbs listing.
type kbInfo struct {
	Name string `json:"name"`
	Open bool   `json:"open"`
}

// handleList lists knowledge bases: every open tenant, plus (with a
// durable root) every tenant directory on disk.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	seen := make(map[string]bool)
	var out []kbInfo
	for _, name := range s.tenants.Open() {
		seen[name] = true
		out = append(out, kbInfo{Name: name, Open: true})
	}
	if s.cfg.Root != "" {
		if entries, err := os.ReadDir(s.cfg.Root); err == nil {
			for _, e := range entries {
				if e.IsDir() && validName(e.Name()) && !seen[e.Name()] {
					out = append(out, kbInfo{Name: e.Name()})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	writeJSON(w, http.StatusOK, map[string]any{"kbs": out})
}

// activityResponse is the body of GET /v1/debug/activity.
type activityResponse struct {
	Queries []obs.ActivityInfo `json:"queries"`
}

// handleActivity lists the queries currently in flight across every
// tenant — statement, kind, tenant/client, elapsed time, stats-so-far —
// the serve counterpart of pg_stat_activity.
func (s *Server) handleActivity(w http.ResponseWriter, r *http.Request) {
	snap := s.activity.Snapshot()
	if snap == nil {
		snap = []obs.ActivityInfo{}
	}
	writeJSON(w, http.StatusOK, &activityResponse{Queries: snap})
}

// handleActivityCancel cancels one in-flight query by registry id: the
// entry's cancel func fires, the governor stops the evaluation, and the
// canceled request itself fails with 499. 404 when no such query is in
// flight (it may have finished between the list and the cancel).
func (s *Server) handleActivityCancel(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		s.writeError(w, &badRequestError{fmt.Errorf("activity id %q: %w", r.PathValue("id"), err)})
		return
	}
	if !s.activity.Cancel(id) {
		writeJSON(w, http.StatusNotFound, &errorBody{Error: errorDetail{
			Code:    "not-found",
			Message: fmt.Sprintf("no in-flight query with id %d", id),
		}})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "id": id})
}

// healthTenant is one tenant's entry in the health report.
type healthTenant struct {
	// Open reports whether the tenant's KB is currently open (an
	// evicted tenant can still carry breaker state).
	Open bool `json:"open"`
	// Breaker is the circuit-breaker state: closed, open, or half-open.
	Breaker string `json:"breaker"`
	// Degraded mirrors Breaker != closed: writes are rejected, reads
	// keep serving off the in-RAM relations.
	Degraded bool `json:"degraded,omitempty"`
	// Poisoned reports a sticky WAL failure; only a successful
	// checkpoint clears it.
	Poisoned bool `json:"poisoned,omitempty"`
}

// healthResponse is the body of /healthz.
type healthResponse struct {
	OK      bool                    `json:"ok"`
	State   string                  `json:"state"` // serving | draining
	Build   *obs.BuildInfo          `json:"build,omitempty"`
	Tenants map[string]healthTenant `json:"tenants,omitempty"`
}

// handleHealthz is the liveness probe: 200 while the server accepts
// work — even with degraded tenants, since the rest keep serving —
// and 503 once the tenant manager has shut down. The body details
// per-tenant breaker and WAL-poison state for operators and probes
// that want more than the status code.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.tenants.Closed() {
		writeJSON(w, http.StatusServiceUnavailable, &healthResponse{State: "draining"})
		return
	}
	resp := &healthResponse{OK: true, State: "serving", Build: &s.build}
	open := s.tenants.Snapshot()
	if len(open) > 0 || len(s.breakers.tracked()) > 0 {
		resp.Tenants = make(map[string]healthTenant)
	}
	for name, k := range open {
		st := s.breakers.state(name)
		resp.Tenants[name] = healthTenant{
			Open:     true,
			Breaker:  st,
			Degraded: st != "closed",
			Poisoned: k.DurabilityErr() != nil,
		}
	}
	for _, name := range s.breakers.tracked() {
		if _, ok := resp.Tenants[name]; ok {
			continue
		}
		st := s.breakers.state(name)
		resp.Tenants[name] = healthTenant{Breaker: st, Degraded: st != "closed"}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleIndex names the API surface at the root.
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	fmt.Fprint(w, `kdb serve:
  GET  /v1/kbs
  POST /v1/kb/{name}/retrieve   {"stmt": "retrieve p($1).", "args": ["a"]}
  POST /v1/kb/{name}/describe
  POST /v1/kb/{name}/explain
  POST /v1/kb/{name}/profile
  POST /v1/kb/{name}/assert     {"fact": "p(a)"}
  POST /v1/kb/{name}/retract    {"fact": "p(a)"}
  POST /v1/kb/{name}/load       {"program": "p(a). q(X) :- p(X)."}
  POST /v1/kb/{name}/check
  POST /v1/kb/{name}/checkpoint
  GET  /v1/debug/activity
  POST /v1/debug/activity/{id}/cancel
  GET  /healthz
  /metrics  /debug/pprof/
`)
}

// decodeBody reads one JSON body into dst, rejecting trailing data.
func decodeBody(r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return &badRequestError{fmt.Errorf("request body: %w", err)}
	}
	return nil
}

// decodeArgs converts JSON argument values into terms.
func decodeArgs(raw []json.RawMessage) ([]term.Term, error) {
	out := make([]term.Term, len(raw))
	for i, m := range raw {
		t, err := decodeArg(m)
		if err != nil {
			return nil, &badRequestError{fmt.Errorf("args[%d]: %w", i, err)}
		}
		out[i] = t
	}
	return out, nil
}

// decodeArg maps one JSON value to a term: numbers become numeric
// constants; strings become symbols when identifier-shaped and string
// constants otherwise; {"sym"|"str"|"num": v} forces a kind.
func decodeArg(m json.RawMessage) (term.Term, error) {
	var v any
	if err := json.Unmarshal(m, &v); err != nil {
		return term.Term{}, err
	}
	switch x := v.(type) {
	case float64:
		return term.Num(x), nil
	case string:
		if parser.IsSymbolName(x) {
			return term.Sym(x), nil
		}
		return term.Str(x), nil
	case map[string]any:
		if len(x) != 1 {
			return term.Term{}, fmt.Errorf("want exactly one of sym/str/num, got %d keys", len(x))
		}
		for k, val := range x {
			switch k {
			case "sym":
				s, ok := val.(string)
				if !ok || !parser.IsSymbolName(s) {
					return term.Term{}, fmt.Errorf("sym wants an identifier-shaped string")
				}
				return term.Sym(s), nil
			case "str":
				s, ok := val.(string)
				if !ok {
					return term.Term{}, fmt.Errorf("str wants a string")
				}
				return term.Str(s), nil
			case "num":
				n, ok := val.(float64)
				if !ok {
					return term.Term{}, fmt.Errorf("num wants a number")
				}
				return term.Num(n), nil
			}
		}
		return term.Term{}, fmt.Errorf("unknown argument form (want sym/str/num)")
	default:
		return term.Term{}, fmt.Errorf("unsupported argument type %T (want number, string, or {sym|str|num: v})", v)
	}
}

// badRequestError marks a client error mapped to 400.
type badRequestError struct{ err error }

func (e *badRequestError) Error() string { return e.err.Error() }
func (e *badRequestError) Unwrap() error { return e.err }

// errorBody is the structured error envelope every failing route
// returns.
type errorBody struct {
	Error errorDetail `json:"error"`
}

type errorDetail struct {
	// Code classifies the failure: bad-request, parse and
	// system-relation (400); analysis (422: a load the analyzers reject,
	// or a statement the KB refuses as written — an arity, an unsafe or
	// `X = Y` qualifier, a describe of no derived predicate); not-found;
	// limit; canceled; deadline; closed, overloaded, degraded and storage
	// (503); panic and internal (500, a server bug, never a statement).
	Code    string `json:"code"`
	Message string `json:"message"`
	// Limit details a breached resource quota (code "limit").
	Limit *limitDetail `json:"limit,omitempty"`
	// Diagnostics carry the findings of a rejected load or a refused
	// statement (code "analysis").
	Diagnostics []string `json:"diagnostics,omitempty"`
}

type limitDetail struct {
	Kind string `json:"kind"`
	Max  int64  `json:"max"`
}

// statusClientClosedRequest is nginx's conventional status for a
// client that disconnected before the response; there is no standard
// code for it.
const statusClientClosedRequest = 499

// writeError maps an error to its HTTP status and structured body,
// returning the status.
func (s *Server) writeError(w http.ResponseWriter, err error) int {
	status := http.StatusInternalServerError
	detail := errorDetail{Code: "internal", Message: err.Error()}

	var le *governor.LimitError
	var pe *governor.PanicError
	var ae *analysis.Error
	var pse *parser.Error
	var bad *badRequestError
	var badName *errBadName
	var degraded *errDegraded
	var ref *sysrel.RefError
	switch {
	case errors.As(err, &le):
		status = http.StatusTooManyRequests
		detail.Code = "limit"
		detail.Limit = &limitDetail{Kind: string(le.Kind), Max: le.Limit}
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
		detail.Code = "deadline"
	case errors.Is(err, governor.ErrCanceled), errors.Is(err, context.Canceled):
		status = statusClientClosedRequest
		detail.Code = "canceled"
	case errors.As(err, &ae):
		status = http.StatusUnprocessableEntity
		detail.Code = "analysis"
		for _, d := range ae.Diags {
			detail.Diagnostics = append(detail.Diagnostics, d.String())
		}
	case errors.As(err, &pse):
		status = http.StatusBadRequest
		detail.Code = "parse"
	case errors.As(err, &ref):
		status = http.StatusBadRequest
		detail.Code = "system-relation"
	case errors.As(err, &bad):
		status = http.StatusBadRequest
		detail.Code = "bad-request"
	case errors.As(err, &badName):
		status = http.StatusNotFound
		detail.Code = "not-found"
	case errors.Is(err, kb.ErrClosed), errors.Is(err, errManagerClosed):
		status = http.StatusServiceUnavailable
		detail.Code = "closed"
	case errors.Is(err, ErrOverloaded):
		status = http.StatusServiceUnavailable
		detail.Code = "overloaded"
	case errors.As(err, &degraded):
		status = http.StatusServiceUnavailable
		detail.Code = "degraded"
	case errors.Is(err, storage.ErrDurability), errors.Is(err, fault.ErrInjected):
		// The write may or may not have reached stable storage; the
		// client's request was fine. 503 tells it to retry elsewhere
		// or later, and the breaker meanwhile walls off the tenant.
		status = http.StatusServiceUnavailable
		detail.Code = "storage"
	case errors.As(err, &pe):
		status = http.StatusInternalServerError
		detail.Code = "panic"
		// The stack stays server-side; the message alone identifies the
		// failure to the client.
		detail.Message = pe.Error()
	}
	// Backpressure statuses carry a Retry-After hint so well-behaved
	// clients back off instead of hammering a saturated or degraded
	// server.
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", s.retryAfter)
	}
	return writeJSON(w, status, &errorBody{Error: detail})
}

// writeJSON writes one JSON response, returning the status for the
// request metrics.
func writeJSON(w http.ResponseWriter, status int, body any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(body)
	return status
}
