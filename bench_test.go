package kdb_test

// The benchmark harness of DESIGN.md: one bench per characterization
// experiment (B1–B5 at this level; B6–B8 live in their substrate
// packages). The paper reports no measurements — these benches
// characterize the reproduction: retrieve on transitive closure,
// Algorithm 1 scaling in rule fan-out, depth, and hypothesis
// size, Algorithm 2 against recursive subjects, and redundancy
// elimination. Run with:
//
//	go test -bench=. -benchmem .

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"kdb"
)

func mustKB(b *testing.B, src string) *kdb.KB {
	b.Helper()
	k := kdb.New()
	if err := k.LoadString(src); err != nil {
		b.Fatal(err)
	}
	return k
}

func benchQuery(b *testing.B, k *kdb.KB, q string) {
	b.Helper()
	query, err := kdb.ParseQuery(q)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.ExecContext(context.Background(), query); err != nil {
			b.Fatal(err)
		}
	}
}

// --- B1: retrieve on transitive closure, size sweep ---
//
// These time the KB's own evaluation path. The strategy ladder (semi-naive,
// top-down and magic on the same goals) is the bench/ harness's traced pass.

func chainKB(b *testing.B, n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "edge(n%04d, n%04d).\n", i, i+1)
	}
	sb.WriteString(`
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
`)
	return sb.String()
}

func BenchmarkRetrieveClosure(b *testing.B) {
	for _, n := range []int{25, 50, 100} {
		b.Run(fmt.Sprintf("chain=%d", n), func(b *testing.B) {
			benchQuery(b, mustKB(b, chainKB(b, n)), `retrieve path(X, Y).`)
		})
	}
}

func BenchmarkRetrieveBoundGoal(b *testing.B) {
	benchQuery(b, mustKB(b, chainKB(b, 200)), `retrieve path(n0000, Y).`)
}

// BenchmarkRetrieveRender times rendering alone: one evaluated result,
// rendered afresh each iteration from an unrendered copy. The shapes: a
// closure, whose two columns each repeat a hundred constants at most; a
// first column with a constant per answer; a numeric first column of 21
// values over 1 000 answers; and one answer.
func BenchmarkRetrieveRender(b *testing.B) {
	var distinct, numeric strings.Builder
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&distinct, "succ(n%04d, n%04d).\n", i, (i*7919)%1000)
		fmt.Fprintf(&numeric, "grade(%g, s%04d).\n", 2+float64(i%21)/10, i)
	}
	for _, c := range []struct{ name, src, stmt string }{
		{"chain=25", chainKB(b, 25), `retrieve path(X, Y).`},
		{"chain=100", chainKB(b, 100), `retrieve path(X, Y).`},
		{"distinct=1000", distinct.String(), `retrieve succ(X, Y).`},
		{"numeric=1000", numeric.String(), `retrieve grade(G, S).`},
		{"one", chainKB(b, 100), `retrieve edge(n0000, Y).`},
	} {
		b.Run(c.name, func(b *testing.B) {
			res, err := mustKB(b, c.src).ExecStringContext(context.Background(), c.stmt)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := *res
				renderSink = r.String()
			}
		})
	}
}

var renderSink string

// --- B2: Algorithm 1 scaling ---

// fanoutKB builds a subject with w alternative rules over distinct EDB
// predicates, each body holding the hypothesis target plus filler atoms.
func fanoutKB(width, filler int) string {
	var sb strings.Builder
	for w := 0; w < width; w++ {
		fmt.Fprintf(&sb, "goal(X) :- target(X)")
		for f := 0; f < filler; f++ {
			fmt.Fprintf(&sb, ", extra%d_%d(X)", w, f)
		}
		sb.WriteString(".\n")
	}
	return sb.String()
}

func BenchmarkDescribeFanout(b *testing.B) {
	for _, width := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("rules=%d", width), func(b *testing.B) {
			k := mustKB(b, fanoutKB(width, 3))
			benchQuery(b, k, `describe goal(X) where target(X).`)
		})
	}
}

// depthKB builds a rule chain goal → l1 → … → ln → target so the
// identification happens n levels deep.
func depthKB(depth int) string {
	var sb strings.Builder
	sb.WriteString("goal(X) :- l1(X).\n")
	for d := 1; d < depth; d++ {
		fmt.Fprintf(&sb, "l%d(X) :- l%d(X).\n", d, d+1)
	}
	fmt.Fprintf(&sb, "l%d(X) :- target(X), side%d(X).\n", depth, depth)
	return sb.String()
}

func BenchmarkDescribeDepth(b *testing.B) {
	for _, depth := range []int{2, 6, 12} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			k := mustKB(b, depthKB(depth))
			k.SetDescribeOptions(kdb.DescribeOptions{MaxDepth: depth + 4})
			benchQuery(b, k, `describe goal(X) where target(X).`)
		})
	}
}

func BenchmarkDescribeHypothesisSize(b *testing.B) {
	// One rule with h conjuncts, hypothesis naming all of them.
	for _, h := range []int{1, 3, 6} {
		b.Run(fmt.Sprintf("conjuncts=%d", h), func(b *testing.B) {
			var rule, hyp strings.Builder
			rule.WriteString("goal(X) :- ")
			for i := 0; i < h; i++ {
				if i > 0 {
					rule.WriteString(", ")
					hyp.WriteString(" and ")
				}
				fmt.Fprintf(&rule, "part%d(X)", i)
				fmt.Fprintf(&hyp, "part%d(X)", i)
			}
			rule.WriteString(".\n")
			k := mustKB(b, rule.String())
			benchQuery(b, k, fmt.Sprintf(`describe goal(X) where %s.`, hyp.String()))
		})
	}
}

// --- B3: Algorithm 2 (recursive describe) ---

const universitySrc = `
student(ann, math, 3.9).
honor(X) :- student(X, Y, Z), Z > 3.7.
prior(X, Y) :- prereq(X, Y).
prior(X, Y) :- prereq(X, Z), prior(Z, Y).
can_ta(X, Y) :- honor(X), complete(X, Y, Z, U), U > 3.3, taught(V, Y, Z, W), teach(V, Y).
can_ta(X, Y) :- honor(X), complete(X, Y, Z, 4).
`

func BenchmarkDescribeRecursive(b *testing.B) {
	b.Run("transformed", func(b *testing.B) {
		k := mustKB(b, universitySrc)
		benchQuery(b, k, `describe prior(X, Y) where prior(databases, Y).`)
	})
	b.Run("step-form", func(b *testing.B) {
		k := mustKB(b, universitySrc)
		k.SetDescribeOptions(kdb.DescribeOptions{KeepSteps: true})
		benchQuery(b, k, `describe prior(X, Y) where prior(databases, Y).`)
	})
	b.Run("typed-guard", func(b *testing.B) {
		k := mustKB(b, universitySrc)
		benchQuery(b, k, `describe prior(X, Y) where prior(X, databases).`)
	})
}

func BenchmarkDescribeUntypedBound(b *testing.B) {
	src := `
link(a, b).
reach(X, Y) :- link(X, Y).
reach(X, Y) :- reach(Y, X).
`
	for _, bound := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("bound=%d", bound), func(b *testing.B) {
			k := mustKB(b, src)
			k.SetDescribeOptions(kdb.DescribeOptions{UntypedBound: bound})
			benchQuery(b, k, `describe reach(X, Y) where link(Y, X).`)
		})
	}
}

// --- B4 lives in internal/transform; B5: redundancy elimination ---

func BenchmarkRedundancyElimination(b *testing.B) {
	// Many overlapping rules for one subject: answers heavily subsume
	// each other, exercising the θ-subsumption pass.
	for _, n := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("rules=%d", n), func(b *testing.B) {
			var sb strings.Builder
			for i := 0; i <= n; i++ {
				sb.WriteString("goal(X) :- base(X)")
				for j := 0; j < i; j++ {
					fmt.Fprintf(&sb, ", opt%d(X)", j)
				}
				sb.WriteString(".\n")
			}
			k := mustKB(b, sb.String())
			benchQuery(b, k, `describe goal(X) where base(X).`)
		})
	}
}

// --- End-to-end benches over the paper's experiments ---

func BenchmarkPaperExamples(b *testing.B) {
	cases := []struct{ name, query string }{
		{"E1-retrieve", `retrieve honor(X) where enroll(X, databases).`},
		{"E3-describe", `describe can_ta(X, databases) where student(X, math, V) and V > 3.7.`},
		{"E4-definition", `describe honor(X).`},
		{"E6-recursive", `describe prior(X, Y) where prior(databases, Y).`},
		{"X2-not", `describe can_ta(X, Y) where not honor(X).`},
		{"X3-possible", `describe where student(X, Y, Z) and Z < 3.5 and can_ta(X, U).`},
		{"X5-compare", `compare (describe honor(X)) with (describe deans_list(X)).`},
	}
	k := kdb.New()
	if err := k.LoadFile("testdata/university.kdb"); err != nil {
		b.Fatal(err)
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			benchQuery(b, k, c.query)
		})
	}
}

func BenchmarkLoadUniversity(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := kdb.New()
		if err := k.LoadFile("testdata/university.kdb"); err != nil {
			b.Fatal(err)
		}
	}
}
