// Package sysrel serves the sys_* virtual relations: the engine's own
// telemetry — catalog, rules, metrics, in-flight activity, query
// statistics, tenants — exposed as ordinary relations, so the full
// Datalog stack (retrieve, describe, explain, profile) works on the
// engine itself. A Provider is long-lived and holds the telemetry
// sources; each query takes a short-lived View that materializes one
// read-only snapshot per referenced relation.
//
// Sources are read directly (storage store, metrics registry, activity
// registry) — never through the knowledge-base layer, whose locks the
// querying goroutine already holds.
package sysrel

import (
	"fmt"
	"strings"
	"sync/atomic"

	"kdb/internal/depgraph"
	"kdb/internal/obs"
	"kdb/internal/parser"
	"kdb/internal/storage"
	"kdb/internal/term"
)

// Prefix reserves the namespace: no user predicate may start with it.
const Prefix = "sys_"

// IsName reports whether pred lies in the reserved sys_ namespace.
// It is called on hot paths and must not allocate.
func IsName(pred string) bool { return strings.HasPrefix(pred, Prefix) }

// Def describes one virtual relation: its schema and what it means,
// backing `describe sys_…` and arity validation.
type Def struct {
	Name  string
	Arity int
	Args  []string
	Doc   string
}

// Signature renders the relation with its argument names,
// e.g. "sys_metric(Name, Kind, Value)".
func (d *Def) Signature() string {
	return d.Name + "(" + strings.Join(d.Args, ", ") + ")"
}

// defs lists every virtual relation, in a stable order.
var defs = []Def{
	{
		Name: "sys_relation", Arity: 3, Args: []string{"Name", "Arity", "Facts"},
		Doc: "one row per stored relation: its name, arity, and current fact count",
	},
	{
		Name: "sys_rule", Arity: 4, Args: []string{"Id", "Head", "BodyLen", "Scc"},
		Doc: "one row per loaded rule: its id (load order), head predicate, body length, and the index of its strongly connected component in dependency order",
	},
	{
		Name: "sys_metric", Arity: 3, Args: []string{"Name", "Kind", "Value"},
		Doc: "one row per metric series: its canonical name (labels rendered Prometheus-style), kind (counter, gauge, or histogram), and current value — for histograms, the cumulative observation count",
	},
	{
		Name: "sys_activity", Arity: 4, Args: []string{"Id", "Kind", "Tenant", "ElapsedUs"},
		Doc: "one row per in-flight query: its activity id, statement kind, tenant, and elapsed microseconds at snapshot time",
	},
	{
		Name: "sys_query_stats", Arity: 4, Args: []string{"Stmt", "Count", "TotalUs", "MaxUs"},
		Doc: "one row per distinct finished statement (requires WithQueryStats): executions, total and maximum latency in microseconds; statements beyond the cap aggregate under \"(other)\"",
	},
	{
		Name: "sys_tenant", Arity: 4, Args: []string{"Name", "Open", "Degraded", "Poisoned"},
		Doc: "one row per server tenant (server-side only): 1/0 flags for whether it is open, degraded to read-only by its circuit breaker, and poisoned by a durability error",
	},
}

var defByName = func() map[string]*Def {
	m := make(map[string]*Def, len(defs))
	for i := range defs {
		m[defs[i].Name] = &defs[i]
	}
	return m
}()

// Defs returns every virtual relation definition, in a stable order.
// The result is shared; callers must not mutate it.
func Defs() []Def { return defs }

// Lookup returns the definition of one virtual relation, or nil.
func Lookup(pred string) *Def { return defByName[pred] }

// RefError reports a reference into the reserved namespace that no
// virtual relation serves: an unknown sys_ name, or a served relation
// used at the wrong arity.
type RefError struct {
	Pred  string
	Arity int  // the arity used; ignored when Def is nil
	Def   *Def // the served relation, nil when the name is unknown
}

func (e *RefError) Error() string {
	if e.Def == nil {
		return fmt.Sprintf("unknown system relation %s (the sys_ namespace is reserved)", e.Pred)
	}
	return fmt.Sprintf("%s used with arity %d but the system relation is %s", e.Pred, e.Arity, e.Def.Signature())
}

// Check validates one atom against the served schemas: nil for a
// predicate outside the namespace or a served relation at its arity, a
// *RefError otherwise. It does not allocate on success.
func Check(a term.Atom) error {
	if !IsName(a.Pred) {
		return nil
	}
	d := Lookup(a.Pred)
	if d == nil || len(a.Args) != d.Arity {
		return &RefError{Pred: a.Pred, Arity: len(a.Args), Def: d}
	}
	return nil
}

// TenantInfo is one row of sys_tenant, reported by the server's
// tenant source.
type TenantInfo struct {
	Name     string
	Open     bool
	Degraded bool
	Poisoned bool
}

// Provider holds the telemetry sources behind the sys_* relations. The
// zero value serves the catalog-shaped relations (sys_relation,
// sys_rule) and empty rows for the rest; sources are attached with the
// Set* methods, which are safe to call at any time (each query's view
// reads them once).
type Provider struct {
	reg     atomic.Pointer[obs.Registry]
	act     atomic.Pointer[obs.ActivityRegistry]
	stats   atomic.Pointer[QueryStats]
	tenants atomic.Pointer[func() []TenantInfo]
}

// NewProvider returns an empty provider.
func NewProvider() *Provider { return &Provider{} }

// SetRegistry attaches the metrics registry behind sys_metric.
func (p *Provider) SetRegistry(r *obs.Registry) {
	p.reg.Store(r)
}

// SetActivity attaches the in-flight registry behind sys_activity.
func (p *Provider) SetActivity(r *obs.ActivityRegistry) {
	p.act.Store(r)
}

// SetQueryStats attaches the statement statistics behind
// sys_query_stats.
func (p *Provider) SetQueryStats(s *QueryStats) {
	p.stats.Store(s)
}

// QueryStats returns the attached statement statistics, or nil.
func (p *Provider) QueryStats() *QueryStats {
	return p.stats.Load()
}

// SetTenants attaches the tenant source behind sys_tenant (the server
// installs one; standalone KBs leave the relation empty). The source
// must not call back into the knowledge-base layer.
func (p *Provider) SetTenants(fn func() []TenantInfo) {
	if fn == nil {
		return
	}
	p.tenants.Store(&fn)
}

// View captures one query's sources: the store and rule set it runs
// against plus the provider's telemetry. It satisfies eval.Virtual;
// Snapshot materializes each relation at most once per query (the
// planner deduplicates), which is what gives sys_* joins their
// read-consistent, engine-independent semantics.
type View struct {
	p     *Provider
	store *storage.Store
	graph *depgraph.Graph
}

// View returns the per-query view over store and the dependency graph of
// the rules the engines evaluate, which sys_rule lists with their
// components.
func (p *Provider) View(store *storage.Store, g *depgraph.Graph) *View {
	return &View{p: p, store: store, graph: g}
}

// IsVirtual reports whether pred is a served virtual relation. It does
// not allocate (a prefix check plus one map read).
func (v *View) IsVirtual(pred string) bool {
	return IsName(pred) && defByName[pred] != nil
}

// Snapshot materializes the current contents of one virtual relation.
func (v *View) Snapshot(pred string) (*storage.Relation, error) {
	d := Lookup(pred)
	if d == nil {
		return nil, fmt.Errorf("sysrel: unknown system relation %s", pred)
	}
	rel, err := storage.NewRelation(d.Arity)
	if err != nil {
		return nil, err
	}
	ins := func(args ...term.Term) error {
		_, err := rel.Insert(storage.Tuple(args))
		return err
	}
	switch pred {
	case "sys_relation":
		if v.store != nil {
			for _, name := range v.store.Preds() {
				r := v.store.Relation(name)
				if r == nil {
					continue
				}
				if err := ins(symOrStr(name), term.Num(float64(r.Arity())), term.Num(float64(r.Len()))); err != nil {
					return nil, err
				}
			}
		}
	case "sys_rule":
		for i, r := range v.graph.Rules() {
			if err := ins(term.Num(float64(i)), symOrStr(r.Head.Pred),
				term.Num(float64(len(r.Body))), term.Num(float64(v.graph.SCCIndex(r.Head.Pred)))); err != nil {
				return nil, err
			}
		}
	case "sys_metric":
		if reg := v.p.reg.Load(); reg != nil {
			for _, pt := range reg.Snapshot() {
				if err := ins(symOrStr(pt.Series), term.Sym(pt.Type), term.Num(pt.Value)); err != nil {
					return nil, err
				}
			}
		}
	case "sys_activity":
		if a := v.p.act.Load(); a != nil {
			for _, q := range a.Snapshot() {
				if err := ins(term.Num(float64(q.ID)), symOrStr(q.Kind),
					symOrStr(q.Tenant), term.Num(q.ElapsedMS*1000)); err != nil {
					return nil, err
				}
			}
		}
	case "sys_query_stats":
		if s := v.p.stats.Load(); s != nil {
			for _, row := range s.Snapshot() {
				if err := ins(term.Str(row.Statement), term.Num(float64(row.Count)),
					term.Num(float64(row.TotalUs)), term.Num(float64(row.MaxUs))); err != nil {
					return nil, err
				}
			}
		}
	case "sys_tenant":
		if fn := v.p.tenants.Load(); fn != nil {
			for _, t := range (*fn)() {
				if err := ins(symOrStr(t.Name), boolTerm(t.Open),
					boolTerm(t.Degraded), boolTerm(t.Poisoned)); err != nil {
					return nil, err
				}
			}
		}
	}
	return rel, nil
}

// symOrStr renders a telemetry string as a symbol when it is shaped
// like one (lowercase identifier, not a reserved word) so it joins
// with bare atoms users type, and as a string constant otherwise.
func symOrStr(s string) term.Term {
	if parser.IsSymbolName(s) {
		return term.Sym(s)
	}
	return term.Str(s)
}

// boolTerm encodes a flag as 1/0: "true" is a reserved word, so a
// symbol would be untypable in queries, while numbers join and compare
// (sys_tenant(N, _, D, _), D > 0) naturally.
func boolTerm(b bool) term.Term {
	if b {
		return term.Num(1)
	}
	return term.Num(0)
}
