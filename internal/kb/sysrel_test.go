package kb

import (
	"context"
	"errors"
	"strings"
	"testing"

	"kdb/internal/obs"
	"kdb/internal/obs/sysrel"
	"kdb/internal/term"
)

// TestSysCatalogRetrieve: the catalog-shaped virtual relations answer
// retrieves, filtered and bound alike. (eval's
// TestVirtualRelationEngineAgreement holds every engine to the oracle on
// virtual relations.)
func TestSysCatalogRetrieve(t *testing.T) {
	k := loadKB(t, universityKB)
	for _, q := range []string{
		"retrieve sys_relation(N, A, F).",
		"retrieve sys_relation(N, A, F) where A > 3.",
		"retrieve sys_rule(I, H, B, S).",
		"retrieve sys_rule(I, can_ta, B, S).",
	} {
		if got := execStr(t, k, q); got == "" || got == "no answers" {
			t.Errorf("%s returned nothing", q)
		}
	}
	// Spot-check content: student/3 holds 4 facts.
	out := execStr(t, k, "retrieve sys_relation(student, A, F).")
	if out != "sys_relation(student, 3, 4)" {
		t.Errorf("sys_relation(student, ...) = %q", out)
	}
}

// TestSysJoinsWithUserData: virtual and stored relations join in one
// query body.
func TestSysJoinsWithUserData(t *testing.T) {
	k := loadKB(t, universityKB+`
crowded(N) :- sys_relation(N, A, F), F > 2.
`)
	out := execStr(t, k, "retrieve crowded(N).")
	for _, want := range []string{"course", "enroll", "student"} {
		if !strings.Contains(out, want) {
			t.Errorf("crowded = %q, missing %s", out, want)
		}
	}
}

// TestSysRelationInLaterDisjunct: a virtual relation only a later
// disjunct names is snapshotted like one the first names.
func TestSysRelationInLaterDisjunct(t *testing.T) {
	k := loadKB(t, universityKB)
	out := execStr(t, k, "retrieve big(N) where teach(N, databases) or sys_relation(N, A, F) and F > 3.")
	if out != "big(student)\nbig(susan)" {
		t.Errorf("= %q, want big(student) (4 facts) and big(susan)", out)
	}
}

func TestSysMetricRetrieve(t *testing.T) {
	reg := obs.NewRegistry()
	k := New(WithMetrics(reg))
	defer k.Close()
	if err := k.LoadString("edge(a, b)."); err != nil {
		t.Fatal(err)
	}
	// Warm the query metrics with one ordinary query.
	execStr(t, k, "retrieve edge(X, Y).")
	out := execStr(t, k, `retrieve sys_metric(N, counter, V) where V > 0.`)
	if out == "" {
		t.Fatal("sys_metric returned no counter rows after a query")
	}
}

func TestSysQueryStats(t *testing.T) {
	k := New(WithQueryStats())
	defer k.Close()
	if err := k.LoadString("edge(a, b). edge(b, c)."); err != nil {
		t.Fatal(err)
	}
	execStr(t, k, "retrieve edge(X, Y).")
	execStr(t, k, "retrieve edge(X, Y).")
	out := execStr(t, k, `retrieve sys_query_stats(S, C, T, M) where C > 1.`)
	if !strings.Contains(out, `"retrieve edge(X, Y)."`) {
		t.Errorf("sys_query_stats = %q, want the repeated statement", out)
	}

	// Without the option the relation is simply empty.
	k2 := loadKB(t, "edge(a, b).")
	defer k2.Close()
	execStr(t, k2, "retrieve edge(X, Y).")
	if out := execStr(t, k2, "retrieve sys_query_stats(S, C, T, M)."); out != "no answers" {
		t.Errorf("sys_query_stats without WithQueryStats = %q, want empty", out)
	}
}

func TestDescribeSysRelation(t *testing.T) {
	k := loadKB(t, universityKB)
	res, err := k.ExecStringContext(context.Background(), "describe sys_metric.")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.System, "sys_metric(Name, Kind, Value)") ||
		!strings.Contains(res.System, "virtual relation") {
		t.Errorf("describe sys_metric = %q", res.System)
	}
	if res.String() != res.System {
		t.Errorf("String() = %q, want the system text", res.String())
	}
	if _, err := k.ExecStringContext(context.Background(), "describe sys_bogus."); err == nil {
		t.Error("describe of an unknown system relation succeeded")
	}
}

func TestSysNamespaceRejections(t *testing.T) {
	k := loadKB(t, universityKB)

	if err := k.Assert(term.NewAtom("sys_metric", term.Sym("a"), term.Sym("b"), term.Num(1))); err == nil {
		t.Error("asserting into a virtual relation succeeded")
	}
	if _, err := k.Retract(term.NewAtom("sys_metric", term.Sym("a"), term.Sym("b"), term.Num(1))); err == nil {
		t.Error("retracting from a virtual relation succeeded")
	}

	for _, src := range []string{
		"sys_thing(a).",
		"sys_mine(X) :- student(X, D, G).",
	} {
		err := k.LoadString(src)
		if err == nil {
			t.Errorf("loading %q succeeded", src)
			continue
		}
		if !strings.Contains(err.Error(), "reserved") {
			t.Errorf("loading %q: error %v does not mention the reserved namespace", src, err)
		}
	}

	// A rule using a sys_ relation with the wrong arity is rejected with
	// the schema in the message.
	err := k.LoadString("busy(K) :- sys_activity(K).")
	if err == nil || !strings.Contains(err.Error(), "sys_activity(Id, Kind, Tenant, ElapsedUs)") {
		t.Errorf("wrong-arity load error = %v", err)
	}

	// A retrieve naming an unserved sys_ relation, in its subject or its
	// qualifier, or a served one at the wrong arity, fails with the
	// structured reference error before it is planned.
	var ref *sysrel.RefError
	_, bogus := k.ExecStringContext(context.Background(), "retrieve sys_bogus(N, A, V).")
	if !errors.As(bogus, &ref) || ref.Def != nil {
		t.Errorf("retrieving an unknown system relation: %v, want a *sysrel.RefError", bogus)
	}
	// The metrics history is gone: its old name is as unknown as any
	// other unserved sys_ name, and fails the same way.
	_, hist := k.ExecStringContext(context.Background(), "retrieve sys_metric_history(N, A, V).")
	if hist == nil || bogus == nil ||
		strings.ReplaceAll(hist.Error(), "sys_metric_history", "sys_bogus") != bogus.Error() {
		t.Errorf("sys_metric_history error = %v, want the unknown-relation error %v", hist, bogus)
	}
	if _, err := k.ExecStringContext(context.Background(), "retrieve honor(X) where student(X, M, G) or sys_bogus(X)."); !errors.As(err, &ref) {
		t.Errorf("unknown system relation in a qualifier: %v, want a *sysrel.RefError", err)
	}
	_, err = k.ExecStringContext(context.Background(), "retrieve sys_metric(X).")
	if !errors.As(err, &ref) || !strings.Contains(err.Error(), "sys_metric(Name, Kind, Value)") {
		t.Errorf("retrieving sys_metric at the wrong arity: %v, want a *sysrel.RefError naming the schema", err)
	}
}

// TestSysTenantStandaloneEmpty: without a server-installed source the
// relation exists but is empty.
func TestSysTenantStandaloneEmpty(t *testing.T) {
	k := loadKB(t, "edge(a, b).")
	defer k.Close()
	if out := execStr(t, k, "retrieve sys_tenant(N, O, D, P)."); out != "no answers" {
		t.Errorf("sys_tenant = %q, want empty", out)
	}
	k.SystemRelations().SetTenants(func() []sysrel.TenantInfo {
		return []sysrel.TenantInfo{{Name: "acme", Open: true}}
	})
	if out := execStr(t, k, "retrieve sys_tenant(N, 1, D, P)."); out != "sys_tenant(acme, 1, 0, 0)" {
		t.Errorf("sys_tenant after source = %q", out)
	}
}
