package kb

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"kdb/internal/term"
)

// identityQueries cover a full scan, indexed probes on each column of a
// stored relation, joins through the rules, recursion and describe.
var identityQueries = []string{
	`retrieve enroll(X, Y).`,
	`retrieve enroll(ann, Y).`,
	`retrieve enroll(X, databases).`,
	`retrieve honor(X) where enroll(X, databases).`,
	`retrieve can_ta(X, Y).`,
	`retrieve prior(X, Y).`,
	`retrieve student(X, math, G) where G > 3.8.`,
	`describe can_ta(X, databases).`,
}

func answers(t *testing.T, k *KB) []string {
	t.Helper()
	out := make([]string, len(identityQueries))
	for i, q := range identityQueries {
		out[i] = execStr(t, k, q)
	}
	return out
}

// TestAssertRetractIsIdentity: asserting facts and retracting them again,
// in any order, leaves every query answer as it was — and so does
// retracting stored facts and asserting them back, which reorders the
// relation under its built indexes.
func TestAssertRetractIsIdentity(t *testing.T) {
	k := loadKB(t, universityKB)
	before := answers(t, k) // also builds the indexes the probes use
	rng := rand.New(rand.NewSource(20))
	extra := []term.Atom{
		term.NewAtom("enroll", term.Sym("cora"), term.Sym("databases")),
		term.NewAtom("enroll", term.Sym("ann"), term.Sym("programming")),
		term.NewAtom("student", term.Sym("eve"), term.Sym("math"), term.Num(3.95)),
		term.NewAtom("complete", term.Sym("dan"), term.Sym("databases"), term.Sym("f89"), term.Num(3.9)),
		term.NewAtom("prereq", term.Sym("programming"), term.Sym("logic")),
	}
	stored := []term.Atom{
		term.NewAtom("enroll", term.Sym("ann"), term.Sym("databases")),
		term.NewAtom("student", term.Sym("ann"), term.Sym("math"), term.Num(3.9)),
		term.NewAtom("prereq", term.Sym("databases"), term.Sym("datastructures")),
		term.NewAtom("complete", term.Sym("ann"), term.Sym("databases"), term.Sym("f89"), term.Num(3.6)),
	}
	for round := 0; round < 10; round++ {
		for _, a := range extra {
			if err := k.Assert(a); err != nil {
				t.Fatal(err)
			}
		}
		if during := answers(t, k); strings.Join(during, "\n") == strings.Join(before, "\n") {
			t.Fatal("the extra facts changed no answer: the test is not looking")
		}
		for _, i := range rng.Perm(len(extra)) {
			if removed, err := k.Retract(extra[i]); err != nil || !removed {
				t.Fatalf("retract %v: removed=%v err=%v", extra[i], removed, err)
			}
		}
		for _, i := range rng.Perm(len(stored)) {
			if removed, err := k.Retract(stored[i]); err != nil || !removed {
				t.Fatalf("retract %v: removed=%v err=%v", stored[i], removed, err)
			}
		}
		for _, i := range rng.Perm(len(stored)) {
			if err := k.Assert(stored[i]); err != nil {
				t.Fatal(err)
			}
		}
		after := answers(t, k)
		for i := range before {
			if after[i] != before[i] {
				t.Fatalf("round %d: %s\n got: %s\nwant: %s", round, identityQueries[i], after[i], before[i])
			}
		}
	}
}

// enrollModel is the plain-Go reference of the durable test below.
type enrollModel map[[2]string]bool

func (m enrollModel) lines(match func(p [2]string) bool) string {
	var out []string
	for p := range m {
		if match(p) {
			out = append(out, fmt.Sprintf("enroll(%s, %s)", p[0], p[1]))
		}
	}
	if len(out) == 0 {
		return "no answers"
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}

// check compares the full relation and one probe per column with the
// model; the probes leave both single-column indexes built.
func (m enrollModel) check(t *testing.T, k *KB, what string, rng *rand.Rand) {
	t.Helper()
	s, c := fmt.Sprintf("s%d", rng.Intn(12)), fmt.Sprintf("c%d", rng.Intn(5))
	for _, q := range []struct {
		stmt string
		want string
	}{
		{`retrieve enroll(X, Y).`, m.lines(func([2]string) bool { return true })},
		{fmt.Sprintf(`retrieve enroll(%s, Y).`, s), m.lines(func(p [2]string) bool { return p[0] == s })},
		{fmt.Sprintf(`retrieve enroll(X, %s).`, c), m.lines(func(p [2]string) bool { return p[1] == c })},
	} {
		if got := execStr(t, k, q.stmt); got != q.want {
			t.Fatalf("%s: %s\n got: %s\nwant: %s", what, q.stmt, got, q.want)
		}
	}
}

// TestRetractSurvivesCrashAndCheckpoint: seeded asserts and retracts on a
// durable KB with built indexes, then the two ways a retract reaches the
// next process — tombstone replay after a crash, and a checkpoint taken
// after it — both reproduce the model.
func TestRetractSurvivesCrashAndCheckpoint(t *testing.T) {
	dir := t.TempDir()
	k, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	model := enrollModel{}
	churn := func(k *KB, steps int) {
		for i := 0; i < steps; i++ {
			p := [2]string{fmt.Sprintf("s%d", rng.Intn(12)), fmt.Sprintf("c%d", rng.Intn(5))}
			a := term.NewAtom("enroll", term.Sym(p[0]), term.Sym(p[1]))
			if rng.Intn(2) == 0 {
				if err := k.Assert(a); err != nil {
					t.Fatal(err)
				}
				model[p] = true
			} else {
				removed, err := k.Retract(a)
				if err != nil || removed != model[p] {
					t.Fatalf("retract %v: removed=%v err=%v, model had it: %v", a, removed, err, model[p])
				}
				delete(model, p)
			}
			if i%10 == 0 {
				model.check(t, k, "in RAM", rng)
			}
		}
	}
	churn(k, 200)
	model.check(t, k, "in RAM", rng)

	// Crash: the handle is abandoned without Close; every acknowledged
	// insert and tombstone is in the log.
	k, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	model.check(t, k, "after crash and tombstone replay", rng)

	churn(k, 200)
	if err := k.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	churn(k, 50) // and a log on top of the snapshot
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}
	k, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	model.check(t, k, "after checkpoint and reopen", rng)
}

// walSyncs counts the log's fsyncs (a storage.Observer).
type walSyncs struct{ n int }

func (c *walSyncs) ObserveWALAppend(time.Duration, int)  {}
func (c *walSyncs) ObserveWALSync(time.Duration)         { c.n++ }
func (c *walSyncs) ObserveSnapshot(time.Duration, int64) {}

// TestLoadIsOneDurableBatch: the facts of a load reach the log together,
// acknowledged by one fsync before LoadString returns, wherever they
// stand among the rules.
func TestLoadIsOneDurableBatch(t *testing.T) {
	dir := t.TempDir()
	k, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var syncs walSyncs
	k.Store().SetObserver(&syncs)
	if err := k.LoadString(`p(a). p(b). q(X) :- p(X). p(c).`); err != nil {
		t.Fatal(err)
	}
	if syncs.n != 1 {
		t.Fatalf("a load of 3 facts took %d fsyncs, want 1", syncs.n)
	}
	if got := execStr(t, k, `retrieve q(X).`); got != "q(a)\nq(b)\nq(c)" {
		t.Fatalf("after load: %q", got)
	}
	k, err = Open(dir) // crash: no Close
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	if got := k.FactCount(); got != 3 {
		t.Fatalf("recovered %d facts, want the 3 loaded", got)
	}
}
