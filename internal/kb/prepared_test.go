package kb

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"kdb/internal/core"
	"kdb/internal/fault"
	"kdb/internal/storage"
	"kdb/internal/term"
)

// TestPreparedRuleSetLifetime: the prepared rule set is built by the
// first evaluation over a generation, never by the load or by a describe;
// new describe options keep it and drop only the describer, and a load
// commits a generation without one, so the next retrieve sees the new
// rules.
func TestPreparedRuleSetLifetime(t *testing.T) {
	k := loadKB(t, universityKB)
	if k.prog.ruleSet.v != nil {
		t.Fatal("the load prepared the rules")
	}
	execStr(t, k, "describe honor(X).")
	if k.prog.ruleSet.v != nil {
		t.Fatal("a describe prepared the rules")
	}
	if got := execStr(t, k, "retrieve honor(X)."); got != "honor(ann)\nhonor(cora)\nhonor(dan)" {
		t.Fatalf("honor = %q", got)
	}
	rs := k.prog.ruleSet.v
	if rs == nil {
		t.Fatal("a retrieve left no prepared rules behind")
	}
	execStr(t, k, "retrieve prior(X, Y).")
	if k.prog.ruleSet.v != rs {
		t.Fatal("a second retrieve prepared the rules again")
	}
	if k.prog.describer.v == nil {
		t.Fatal("a describe left no describer behind")
	}
	k.SetDescribeOptions(core.Options{MaxDepth: 8})
	if k.prog.ruleSet.v != rs || k.prog.describer.v != nil {
		t.Fatal("new describe options must keep the prepared rules and drop the describer")
	}
	if err := k.LoadString("tutor(X) :- honor(X), enroll(X, databases)."); err != nil {
		t.Fatal(err)
	}
	if k.prog.ruleSet.v != nil {
		t.Fatal("a load kept the rules prepared before it")
	}
	if got := execStr(t, k, "retrieve tutor(X)."); got != "tutor(ann)\ntutor(dan)" {
		t.Fatalf("tutor = %q", got)
	}
}

// TestPreparedRuleSetUnderConcurrentLoads: readers keep retrieving and
// describing while loads add rules and describe options change, so the
// first statements over each generation build its rule set and its
// describer concurrently; the loader's own next retrieve always sees the
// rule it just loaded: no statement keeps evaluating a set prepared
// before a load that has returned. Run with -race.
func TestPreparedRuleSetUnderConcurrentLoads(t *testing.T) {
	k := loadKB(t, "p(a). p(b). q(X) :- p(X).")
	q := term.NewAtom("q", term.Var("X"))
	const loads, readers = 20, 4
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if res, err := k.retrieve(context.Background(), q, nil); err != nil || len(res.Tuples) != 2 {
					t.Errorf("retrieve q(X) during loads = %v, %v", res, err)
					return
				}
				if res, err := k.ExecStringContext(context.Background(), "describe q(X)."); err != nil || res.String() != "q(X) <- p(X)" {
					t.Errorf("describe q(X) during loads = %v, %v", res, err)
					return
				}
			}
		}()
	}
	for i := 0; i < loads; i++ {
		k.SetDescribeOptions(core.Options{MaxDepth: 8 + i})
		if err := k.LoadString(fmt.Sprintf("r%d(X) :- q(X).", i)); err != nil {
			t.Error(err)
			break
		}
		res, err := k.retrieve(context.Background(), term.NewAtom(fmt.Sprintf("r%d", i), term.Var("X")), nil)
		if err != nil || len(res.Tuples) != 2 {
			t.Errorf("retrieve r%d(X) right after its load = %v, %v", i, res, err)
			break
		}
	}
	close(done)
	wg.Wait()
}

// TestFailedLoadChangesNothing: a load whose facts fail to reach the log
// leaves the rules, the classes and the generation as they were, so the
// knowledge base still takes what it took before; the same load then
// succeeds once the log does.
func TestFailedLoadChangesNothing(t *testing.T) {
	t.Cleanup(fault.Reset)
	k, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	if err := k.LoadString("p(a)."); err != nil {
		t.Fatal(err)
	}
	execStr(t, k, "retrieve p(X).") // the rules are prepared before the failure
	gen := k.Generation()
	const load = "p(X) :- q(X). q(b)."

	if err := fault.Enable(fault.SiteWALSync, fault.Outcome{Err: fault.ErrInjected}, fault.Policy{Times: 1}); err != nil {
		t.Fatal(err)
	}
	if err := k.LoadString(load); !errors.Is(err, storage.ErrDurability) {
		t.Fatalf("load under a failing fsync = %v, want ErrDurability", err)
	}
	if rules := k.Rules(); len(rules) != 0 {
		t.Errorf("rules after the failed load = %v, want none", rules)
	}
	if !k.Catalog().IsEDB("p") {
		t.Errorf("p is no longer extensional after the failed load")
	}
	if g := k.Generation(); g != gen {
		t.Errorf("generation moved from %d to %d on the failed load", gen, g)
	}
	if err := k.Assert(term.NewAtom("p", term.Sym("c"))); err != nil {
		t.Errorf("assert p(c) after the failed load: %v", err)
	}
	if got := execStr(t, k, "retrieve p(X)."); got != "p(a)\np(c)" {
		t.Errorf("p after the failed load = %q", got)
	}

	if err := k.LoadString(load); err != nil {
		t.Fatalf("retried load: %v", err)
	}
	if !k.Catalog().IsIDB("p") || k.Generation() == gen {
		t.Errorf("the retried load did not take: p intensional %v, generation %d", k.Catalog().IsIDB("p"), k.Generation())
	}
	if got := execStr(t, k, "retrieve p(X)."); got != "p(a)\np(b)\np(c)" {
		t.Errorf("p after the retried load = %q", got)
	}
}

// TestPointRetrieveAllocsIgnoreUnrelatedRules: a point retrieve allocates
// as much beside 200 rules it never reaches as beside 5. Analysing the
// rule set is the load's business, not the statement's.
func TestPointRetrieveAllocsIgnoreUnrelatedRules(t *testing.T) {
	subject := term.NewAtom("student", term.Sym("ann"), term.Var("M"), term.Var("G"))
	allocs := func(unrelated int) float64 {
		var src strings.Builder
		src.WriteString(universityKB)
		src.WriteString("v(a).\n")
		for i := 0; i < unrelated; i++ {
			fmt.Fprintf(&src, "u%d(X) :- v(X).\n", i)
		}
		k := loadKB(t, src.String())
		want := []string{"math, 3.9"}
		res, err := k.retrieve(context.Background(), subject, nil)
		if err != nil || !reflect.DeepEqual(res.Strings(), want) {
			t.Fatalf("%d unrelated rules: retrieve = %v, %v; want %v", unrelated, res, err, want)
		}
		return testing.AllocsPerRun(100, func() {
			if _, err := k.retrieve(context.Background(), subject, nil); err != nil {
				panic(err)
			}
		})
	}
	if few, many := allocs(5), allocs(200); few != many {
		t.Errorf("a point retrieve allocates %.0f times beside 5 unrelated rules, %.0f beside 200", few, many)
	}
}
