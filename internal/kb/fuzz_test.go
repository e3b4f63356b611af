package kb

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"kdb/internal/governor"
)

// fuzzLimits are tight enough that no statement over the university
// program runs long: a runaway evaluation, search or recording stops as a
// governed error instead.
var fuzzLimits = governor.Limits{
	MaxWall:              200 * time.Millisecond,
	MaxFacts:             2000,
	MaxIterations:        50,
	MaxDescribeNodes:     20000,
	MaxProvenanceEntries: 2000,
}

// FuzzExec runs arbitrary statement text against testdata/university.kdb
// under fuzzLimits: no statement may panic — a contained one surfaces as
// a *governor.PanicError, which fails here too — or run past a few
// seconds, and every refusal is an error with a message and of a class
// (classified) a client can act on. The seeds run as part of the normal
// test suite; `go test -fuzz=FuzzExec` explores further.
func FuzzExec(f *testing.F) {
	for _, s := range []string{
		`retrieve honor(X).`,
		`retrieve honor(X) where enroll(X, databases).`,
		`retrieve answer(X) where can_ta(X, databases) and student(X, math, V) and V > 3.7.`,
		`retrieve can_ta(ann, Y).`,
		`retrieve can_ta(ann, databases) where can_ta(X, Y).`,
		`retrieve prior(X, Y) where X = databases or Y = programming.`,
		`retrieve student(X, M, G) where G >= 3.5 and M != cs.`,
		`retrieve sys_relation(N, A, F).`,
		`explain can_ta(ann, databases).`,
		`explain prior(databases, Y).`,
		`profile can_ta(X, databases).`,
		`describe honor(X).`,
		`describe can_ta(X, Y) where complete(X, Y, Z, 4).`,
		`describe * where honor(X).`,
		`describe where student(X, math, G).`,
		`describe honor(X) where not deans_list(X).`,
		`compare honor(X) with deans_list(X).`,
		`retrieve honor(X) where X = Y.`,
		`retrieve p(X) where q(X, Y, Z).`,
		`retrieve honor(X`,
		`retrieve X > 3.`,
		`explain honor(X) where student(X, Y, Z) and Z > W.`,
		``,
		`retrieve nosuch(X, Y).`,
		`retrieve honor(X) where X > Y.`,
		`retrieve student(a).`,
		`retrieve honor(a, b).`,
		`explain honor(a, b).`,
		`profile student(a).`,
		`describe honor(X) where student(X).`,
		`describe honor(X, Y).`,
		`describe student(X, Y, Z).`,
		`describe nosuch(X).`,
		`describe * where not honor(X).`,
		`describe where not honor(X).`,
		`describe *.`,
		`describe honor(X) where student(X, M, G) and G > 7 and G < 3.`,
		`compare (describe honor(X) where student(X, M, G) and G < 3) with (describe deans_list(X)).`,
		`compare (describe honor(X)) with (describe prior(X, Y)).`,
		`retrieve sys_nosuch(X).`,
	} {
		f.Add(s)
	}
	k := New(WithQueryLimits(fuzzLimits))
	if err := k.LoadFile("../../testdata/university.kdb"); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, stmt string) {
		start := time.Now()
		res, err := k.ExecStringContext(context.Background(), stmt)
		if took := time.Since(start); took > 5*time.Second {
			t.Fatalf("%q ran %v under a %v wall limit", stmt, took, fuzzLimits.MaxWall)
		}
		var pe *governor.PanicError
		switch {
		case errors.As(err, &pe):
			t.Fatalf("%q panicked: %v\n%s", stmt, pe, pe.Stack)
		case err != nil && strings.TrimSpace(err.Error()) == "":
			t.Fatalf("%q failed with an empty message (%T)", stmt, err)
		case err != nil && !classified(err):
			t.Fatalf("%q failed with an error of no class (%T): %v", stmt, err, err)
		case err == nil && res == nil:
			t.Fatalf("%q returned neither a result nor an error", stmt)
		}
	})
}
