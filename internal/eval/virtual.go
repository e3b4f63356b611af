package eval

import (
	"kdb/internal/storage"
	"kdb/internal/term"
)

// Virtual supplies read-only system relations (the sys_* namespace) to
// the engines. A provider answers IsVirtual for predicate names it
// serves and materializes one relation per predicate on demand. The
// engines consult it only while building a plan: every virtual
// predicate the statement reaches is snapshotted exactly once per
// evaluation, so all joins inside one query — and every engine runs
// over the same plan inputs — see a single consistent state, never a
// live view that shifts mid-fixpoint.
//
// Providers must be safe for concurrent use and must not call back
// into the knowledge-base layer (snapshots are taken while the caller
// may hold its locks).
type Virtual interface {
	// IsVirtual reports whether pred names a virtual relation this
	// provider serves. It is called on the hot planning path and must
	// not allocate.
	IsVirtual(pred string) bool
	// Snapshot materializes the current contents of pred as a fresh
	// relation. The engines treat the result as immutable.
	Snapshot(pred string) (*storage.Relation, error)
}

// virtualSnapshots materializes every virtual predicate the plan's query
// rules reach: their own body atoms (so subjects and every disjunct of
// the qualifier count) and everything they depend on. Rules the statement cannot reach take no
// snapshot. It returns nil when no virtual predicate is reached: on that
// path — the overwhelmingly common one — it performs no allocation at
// all (enforced by TestVirtualSnapshotsNoSysAllocs), so programs that
// never mention sys_* pay nothing for the provider.
func virtualSnapshots(v Virtual, p *plan) (map[string]*storage.Relation, error) {
	if v == nil {
		return nil, nil
	}
	var snaps map[string]*storage.Relation
	var err error
	for i := range p.query {
		for _, a := range p.query[i].rule.Body {
			if term.IsComparison(a) {
				continue
			}
			if snaps, err = snapshot(v, snaps, a.Pred); err != nil {
				return nil, err
			}
			for pred := range p.set.graph.Reach(a.Pred) {
				if snaps, err = snapshot(v, snaps, pred); err != nil {
					return nil, err
				}
			}
		}
	}
	return snaps, nil
}

// snapshot adds pred's snapshot to snaps when pred is virtual and not in
// snaps yet, creating the map on first use.
func snapshot(v Virtual, snaps map[string]*storage.Relation, pred string) (map[string]*storage.Relation, error) {
	if !v.IsVirtual(pred) {
		return snaps, nil
	}
	if _, ok := snaps[pred]; ok {
		return snaps, nil
	}
	rel, err := v.Snapshot(pred)
	if err != nil || rel == nil {
		return snaps, err
	}
	if snaps == nil {
		snaps = make(map[string]*storage.Relation, 1)
	}
	snaps[pred] = rel
	return snaps, nil
}
