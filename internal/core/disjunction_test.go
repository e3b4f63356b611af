package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"kdb/internal/governor"
	"kdb/internal/storage"
	"kdb/internal/term"
)

func TestDescribeOrDegenerateForms(t *testing.T) {
	d := newDescriber(t, universityIDB, Options{})
	subject := atomOf(t, `honor(X)`)
	// Zero disjuncts = no hypothesis.
	ans, err := d.DescribeOrContext(context.Background(), subject, nil, governor.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Formulas) != 1 {
		t.Errorf("= %q", ans.SortedStrings())
	}
	// One disjunct = plain describe.
	one, err := d.DescribeOrContext(context.Background(), subject, []term.Formula{formula(t, `student(X, math, V) and V > 3.8`)}, governor.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if one.SortedStrings()[0] != "honor(X) <- true" {
		t.Errorf("= %q", one.SortedStrings())
	}
	// Empty disjunct among several is rejected.
	if _, err := d.DescribeOrContext(context.Background(), subject, []term.Formula{formula(t, `student(X, math, V)`), {}}, governor.Limits{}); err == nil {
		t.Error("empty disjunct must be rejected")
	}
}

func TestDescribeOrWeakestCommonAnswer(t *testing.T) {
	d := newDescriber(t, universityIDB, Options{})
	subject := atomOf(t, `honor(X)`)
	ans, err := d.DescribeOrContext(context.Background(), subject, []term.Formula{
		formula(t, `student(X, math, V) and V > 3.9`),
		formula(t, `student(X, cs, V) and V > 3.2`),
	}, governor.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	// Disjunct 1 collapses to `true`; disjunct 2 leaves `V > 3.7`. The
	// weakest formula valid under both is `V > 3.7`.
	got := ans.SortedStrings()
	if len(got) != 1 || got[0] != "honor(X) <- V > 3.7" {
		t.Errorf("= %q", got)
	}
	// UsedHypothesis is cleared after a merge (indices are per-disjunct).
	if len(ans.Formulas[0].UsedHypothesis) != 0 {
		t.Errorf("UsedHypothesis = %v", ans.Formulas[0].UsedHypothesis)
	}
}

func TestDescribeOrRecursiveSubject(t *testing.T) {
	d := newDescriber(t, universityIDB, Options{})
	subject := atomOf(t, `prior(X, Y)`)
	ans, err := d.DescribeOrContext(context.Background(), subject, []term.Formula{
		formula(t, `prior(databases, Y)`),
		formula(t, `prior(databases, Z)`), // a variant of the same hypothesis
	}, governor.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	got := ans.SortedStrings()
	// Each disjunct uses its own variable for the reachable course, so
	// the second disjunct's root identification additionally binds
	// Y = Z — and that equality is required for soundness (under
	// prior(databases, Z), prior(databases, Y) holds only when Y = Z).
	// The merged answers carry it.
	want := []string{
		"prior(X, Y) <- X = databases and Y = Z",
		"prior(X, Y) <- Y = Z and prior(X, databases)",
	}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("= %q, want %q", got, want)
	}
}

// TestQuickDescribeOrSound: every DescribeOr answer is model-checked
// against BOTH hypotheses on random EDBs (it must be sound under each
// disjunct separately).
func TestQuickDescribeOrSound(t *testing.T) {
	d := newDescriber(t, universityIDB, Options{})
	subject := atomOf(t, `can_ta(X, Y)`)
	d1 := formula(t, `complete(X, Y, S, 4)`)
	d2 := formula(t, `honor(X) and teach(susan, Y)`)
	ans, err := d.DescribeOrContext(context.Background(), subject, []term.Formula{d1, d2}, governor.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Formulas) == 0 {
		t.Skip("no common answers for this pair")
	}
	rules := d.Rules()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		st := randomUniversityStore(r)
		for _, a := range ans.Formulas {
			for _, hyp := range []term.Formula{d1, d2} {
				if err := checkAnswerSound(st, rules, subject, hyp, a); err != nil {
					t.Logf("seed %d: %v", seed, err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestQuickRetrieveOrMatchesUnion is in the kb package (the union is a
// kb-level operation); here we check the intersection property of
// DescribeOr: every merged answer appears (up to subsumption) in each
// disjunct's closure.
func TestQuickDescribeOrIsIntersection(t *testing.T) {
	d := newDescriber(t, universityIDB, Options{})
	subject := atomOf(t, `honor(X)`)
	bounds := []float64{3.2, 3.5, 3.8, 3.9}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b1 := bounds[r.Intn(len(bounds))]
		b2 := bounds[r.Intn(len(bounds))]
		d1 := formula(t, fmt.Sprintf(`student(X, math, V) and V > %g`, b1))
		d2 := formula(t, fmt.Sprintf(`student(X, cs, V) and V > %g`, b2))
		merged, err := d.DescribeOrContext(context.Background(), subject, []term.Formula{d1, d2}, governor.Limits{})
		if err != nil {
			return false
		}
		// The merged answer must equal the answer under the WEAKER bound
		// (the weaker hypothesis determines what both can support).
		weak := b1
		if b2 < b1 {
			weak = b2
		}
		var want string
		if weak >= 3.7 {
			want = "honor(X) <- true"
		} else {
			want = "honor(X) <- V > 3.7"
		}
		got := merged.SortedStrings()
		if len(got) != 1 || got[0] != want {
			t.Logf("seed %d bounds (%g, %g): got %q, want %q", seed, b1, b2, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDescribeOr(b *testing.B) {
	d := newDescriber(b, universityIDB, Options{})
	subject := term.NewAtom("honor", term.Var("X"))
	disjuncts := []term.Formula{
		formula(b, `student(X, math, V) and V > 3.8`),
		formula(b, `student(X, cs, V) and V > 3.5`),
		formula(b, `student(X, physics, V) and V > 3.9`),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := d.DescribeOrContext(context.Background(), subject, disjuncts, governor.Limits{}); err != nil {
			b.Fatal(err)
		}
	}
}

var _ = storage.NewMemory // keep the import for the soundness helper
