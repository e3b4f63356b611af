package eval

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"kdb/internal/obs/profile"
)

var update = flag.Bool("update", false, "rewrite testdata/profile_rows.golden")

// profileEngines are the engines the profile tests run, each built with
// profiling on: the semi-naive engine alone profiles.
var profileEngines = []struct {
	name string
	mk   func(Input, ...EngineOption) Engine
}{
	{"seminaive", NewSemiNaive},
}

// runProfiled evaluates q on a profiled engine and returns the rows and
// the record of the evaluation; the record is nil when the statement
// failed before evaluating.
func runProfiled(mk func(Input, ...EngineOption) Engine, in Input, q Query) ([]profile.Row, *EvalStats, error) {
	e := mk(in, WithProfile())
	_, err := e.RetrieveContext(context.Background(), q)
	st := e.(StatsReporter).LastStats()
	if st == nil {
		return nil, nil, err
	}
	return st.Profile, st, err
}

// rowSumsMismatch compares the rows' sums with the record's totals and
// describes the first difference, or returns "". Rounds do not overlap
// and all lie within the evaluation, so their wall times sum to at most
// its own.
func rowSumsMismatch(rows []profile.Row, st *EvalStats) string {
	var sum profile.Row
	for _, r := range rows {
		sum.Wall += r.Wall
		sum.Tuples += r.Tuples
		sum.Lookups += r.Lookups
		sum.Probes += r.Probes
		sum.FullScans += r.FullScans
		sum.Candidates += r.Candidates
		sum.IndexBuilds += r.IndexBuilds
	}
	for _, c := range []struct {
		name      string
		rows, rec int64
	}{
		{"tuples/facts", sum.Tuples, int64(st.Facts)},
		{"lookups", sum.Lookups, st.Lookups},
		{"probes", sum.Probes, st.Probes},
		{"full scans", sum.FullScans, st.FullScans},
		{"candidates", sum.Candidates, st.Candidates},
		{"index builds", sum.IndexBuilds, st.IndexBuilds},
	} {
		if c.rows != c.rec {
			return fmt.Sprintf("%s: rows sum to %d, the record holds %d", c.name, c.rows, c.rec)
		}
	}
	if sum.Wall > st.Wall {
		return fmt.Sprintf("wall: rows sum to %v, the evaluation took %v", sum.Wall, st.Wall)
	}
	return ""
}

// TestProfileRowsSumToStats: the rows of a profiled evaluation partition
// its record — their tuples, lookups, probes, full scans, candidates and
// index builds sum to the record's totals, and their wall times to no
// more than its wall time — over the oracle generator's programs and the
// shipped ones.
func TestProfileRowsSumToStats(t *testing.T) {
	evaluations := 0
	check := func(label string, in Input, q Query) {
		t.Helper()
		for _, e := range profileEngines {
			rows, st, _ := runProfiled(e.mk, in, q)
			if st == nil {
				continue
			}
			evaluations++
			if len(rows) == 0 {
				t.Errorf("%s, %s: a profiled evaluation has no rows", label, e.name)
				continue
			}
			if d := rowSumsMismatch(rows, st); d != "" {
				t.Errorf("%s, %s: %s", label, e.name, d)
			}
		}
	}
	seeds := 400
	if testing.Short() {
		seeds = 60
	}
	for seed := 1; seed <= seeds; seed++ {
		g := newGenerator(int64(seed), make(genFeatures))
		c := g.generate()
		check(fmt.Sprintf("seed %d", seed), c.input(t), c.query)
	}
	for _, c := range shippedCases(t) {
		in := load(t, c.src)
		for _, stmt := range c.stmts {
			check(c.program+": "+stmt, in, query(t, stmt))
		}
	}
	t.Logf("%d profiled evaluations", evaluations)
}

// TestProfileRowsMatchGolden pins the rows and the record's totals of
// every shipped statement — everything but wall times and
// the allocation estimate — to testdata/profile_rows.golden. A probe the
// engine stops counting drops out of a row and its total alike, which the
// sums cannot see; the golden can. Rewrite it with -update.
func TestProfileRowsMatchGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range shippedCases(t) {
		in := load(t, c.src)
		for _, stmt := range c.stmts {
			for _, e := range profileEngines {
				rows, st, err := runProfiled(e.mk, in, query(t, stmt))
				if err != nil {
					t.Fatalf("%s: %s on %s: %v", c.program, stmt, e.name, err)
				}
				fmt.Fprintf(&b, "== %s | %s | %s\n", c.program, stmt, e.name)
				fmt.Fprintf(&b, "facts=%d lookups=%d probes=%d full_scans=%d candidates=%d index_builds=%d\n",
					st.Facts, st.Lookups, st.Probes, st.FullScans, st.Candidates, st.IndexBuilds)
				rows = slices.Clone(rows)
				slices.SortFunc(rows, func(x, y profile.Row) int { return strings.Compare(x.Rule, y.Rule) })
				for _, r := range rows {
					fmt.Fprintf(&b, "  %s | pred=%s synthetic=%t iters=%d tuples=%d lookups=%d probes=%d full_scans=%d candidates=%d index_builds=%d deltas=%v\n",
						r.Rule, r.Pred, r.Synthetic, r.Iterations, r.Tuples, r.Lookups, r.Probes, r.FullScans, r.Candidates, r.IndexBuilds, r.DeltaSizes)
				}
			}
		}
	}
	path := filepath.Join("testdata", "profile_rows.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs from %s:\n got  %s\n want %s", i+1, path, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
	}
}
