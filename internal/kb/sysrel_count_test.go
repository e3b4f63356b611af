package kb

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"kdb/internal/term"
)

// TestSysRelationCountsEqualStore is a metamorphic test: however a KB
// reached its state — loads, asserts, duplicate asserts, retracts, and
// retracts of facts that are not there — `retrieve sys_relation(N, A,
// F).` lists exactly the stored predicates, each with its arity and its
// relation's Len, and each Len equals the number of distinct facts an
// independent model holds. It runs on an in-memory KB and on a durable
// KB that is closed and reopened from its directory along the way.
func TestSysRelationCountsEqualStore(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("memory/seed=%d", seed), func(t *testing.T) {
			k := New()
			defer func() { k.Close() }()
			runSysRelationSteps(t, seed, &k, nil)
		})
		t.Run(fmt.Sprintf("durable/seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			k, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { k.Close() }()
			reopen := func() *KB {
				if err := k.Close(); err != nil {
					t.Fatal(err)
				}
				k2, err := Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				return k2
			}
			runSysRelationSteps(t, seed, &k, reopen)
		})
	}
}

// sysRelPreds are the stored predicates the generator writes, with
// their arities. The loaded rule's head, path, is derived and never
// stored.
var sysRelPreds = []struct {
	name  string
	arity int
}{{"edge", 2}, {"node", 1}, {"color", 2}, {"weight", 3}}

// runSysRelationSteps drives *kp through a seeded sequence of writes,
// checking sys_relation against the store and the model after each
// one. When reopen is set, every tenth step also replaces *kp with a
// KB reopened from disk and checks again.
func runSysRelationSteps(t *testing.T, seed int64, kp **KB, reopen func() *KB) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	model := map[string]map[string]bool{} // pred → fact text → present
	fact := func() (term.Atom, string) {
		p := sysRelPreds[rng.Intn(len(sysRelPreds))]
		args := make([]term.Term, p.arity)
		for i := range args {
			args[i] = term.Sym(fmt.Sprintf("c%d", rng.Intn(4)))
		}
		a := term.NewAtom(p.name, args...)
		return a, a.String()
	}
	add := func(a term.Atom, s string) {
		if model[a.Pred] == nil {
			model[a.Pred] = map[string]bool{}
		}
		model[a.Pred][s] = true
	}
	var applied []term.Atom // facts asserted so far, for duplicate asserts and retracts
	for step := 0; step < 60; step++ {
		k := *kp
		var what string
		switch op := rng.Intn(5); op {
		case 0: // load a fragment of facts, sometimes with a rule
			var src strings.Builder
			for n := 1 + rng.Intn(4); n > 0; n-- {
				a, s := fact()
				src.WriteString(s + ". ")
				add(a, s)
				applied = append(applied, a)
			}
			if rng.Intn(3) == 0 {
				src.WriteString("path(X, Y) :- edge(X, Y). ")
			}
			what = "load " + src.String()
			if err := k.LoadString(src.String()); err != nil {
				t.Fatalf("step %d: %s: %v", step, what, err)
			}
		case 1: // assert a fresh fact
			a, s := fact()
			what = "assert " + s
			if err := k.Assert(a); err != nil {
				t.Fatalf("step %d: %s: %v", step, what, err)
			}
			add(a, s)
			applied = append(applied, a)
		case 2: // assert a fact again
			if len(applied) == 0 {
				continue
			}
			a := applied[rng.Intn(len(applied))]
			s := a.String()
			what = "re-assert " + s
			if err := k.Assert(a); err != nil {
				t.Fatalf("step %d: %s: %v", step, what, err)
			}
			add(a, s)
		case 3: // retract a fact that may or may not be present
			if len(applied) == 0 {
				continue
			}
			a := applied[rng.Intn(len(applied))]
			s := a.String()
			what = "retract " + s
			removed, err := k.Retract(a)
			if err != nil {
				t.Fatalf("step %d: %s: %v", step, what, err)
			}
			if removed != model[a.Pred][s] {
				t.Fatalf("step %d: %s: removed=%v, model had it: %v", step, what, removed, model[a.Pred][s])
			}
			delete(model[a.Pred], s)
		case 4: // retract a fact that was never stored
			p := sysRelPreds[rng.Intn(len(sysRelPreds))]
			args := make([]term.Term, p.arity)
			for i := range args {
				args[i] = term.Sym("absent")
			}
			a := term.NewAtom(p.name, args...)
			what = "retract absent " + a.String()
			if removed, err := k.Retract(a); err != nil || removed {
				t.Fatalf("step %d: %s: removed=%v err=%v", step, what, removed, err)
			}
		}
		checkSysRelation(t, k, model, fmt.Sprintf("step %d (%s)", step, what))
		if reopen != nil && step%10 == 9 {
			*kp = reopen()
			checkSysRelation(t, *kp, model, fmt.Sprintf("step %d after reopen", step))
		}
	}
}

// checkSysRelation compares the sys_relation answer with the store's
// relations and the model's fact counts.
func checkSysRelation(t *testing.T, k *KB, model map[string]map[string]bool, at string) {
	t.Helper()
	res, err := k.ExecStringContext(context.Background(), "retrieve sys_relation(N, A, F).")
	if err != nil {
		t.Fatalf("%s: %v", at, err)
	}
	var got []string
	for _, tp := range res.Retrieve.Tuples {
		got = append(got, fmt.Sprintf("%v/%v/%v", tp[0], tp[1], tp[2]))
	}
	var want []string
	for _, p := range k.Store().Preds() {
		r := k.Store().Relation(p)
		want = append(want, fmt.Sprintf("%s/%d/%d", p, r.Arity(), r.Len()))
		if r.Len() != len(model[p]) {
			t.Errorf("%s: %s holds %d facts, the model %d", at, p, r.Len(), len(model[p]))
		}
	}
	for p, facts := range model {
		if len(facts) > 0 && k.Store().Relation(p) == nil {
			t.Errorf("%s: %s has %d facts in the model but no stored relation", at, p, len(facts))
		}
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: sys_relation = %v, want %v", at, got, want)
	}
}
