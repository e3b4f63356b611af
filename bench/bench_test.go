package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// smallScale shrinks every workload far enough for the whole suite to
// run in a few seconds while every code path still executes.
const smallScale = 0.05

// twoOps sets a workload up and replays two fully checked ops per client,
// plus the epilogue.
func twoOps(t *testing.T, w *workload, seed int64) {
	t.Helper()
	inst, err := w.setup(seed, smallScale)
	if err != nil {
		t.Fatalf("%s: set-up: %v", w.name, err)
	}
	defer inst.close()
	var total opResult
	for c := 0; c < w.clients; c++ {
		for i := 0; i < 2; i++ {
			total.add(inst.op(c, i, checkFull, nil))
		}
	}
	total.add(inst.finish(map[string]float64{}))
	if total.stmts == 0 || total.failed != 0 {
		t.Errorf("%s seed %d: %d of %d statements failed", w.name, seed, total.failed, total.stmts)
	}
}

func TestEveryWorkloadAnswersCorrectly(t *testing.T) {
	for _, w := range workloads {
		twoOps(t, w, 1)
	}
}

// inputs renders everything the generators hand to kdb for one seed.
func inputs(seed int64) string {
	var sb strings.Builder
	sb.WriteString(genDAG(subSeed(seed, "closure"), 40).program())
	r := subSeed(seed, "registrar")
	u := genRegistrar(r, 60)
	sb.WriteString(u.program())
	for _, s := range registrarScript(r, u, u.program()) {
		sb.WriteString(s.text)
	}
	for _, rq := range serveScript(subSeed(seed, "serve"), u) {
		sb.Write(rq.body)
	}
	in, err := setupDescribe(seed, 1)
	if err != nil {
		panic(err)
	}
	for _, f := range in.(*describeInstance).fams {
		sb.WriteString(f.program)
	}
	return sb.String()
}

func TestSeedIsTheOnlyRandomness(t *testing.T) {
	if inputs(7) != inputs(7) {
		t.Error("the same seed generated different inputs")
	}
	if inputs(7) == inputs(8) {
		t.Error("different seeds generated the same inputs")
	}
	for _, w := range workloads {
		twoOps(t, w, 2)
	}
}

func TestReferencesOnHandWrittenCases(t *testing.T) {
	g := &dag{n: 5, label: []int{0, 1, 2, 3, 4}, edges: [][2]int{{0, 1}, {1, 2}, {0, 3}, {3, 2}}}
	if got := g.reach(0); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Errorf("reach(0) = %v", got)
	}
	if got := g.reach(4); got != nil {
		t.Errorf("reach(4) = %v", got)
	}
	if got := g.pathAll(); got.count != 5 || !strings.Contains(got.full, "path(n0003, n0002)") {
		t.Errorf("pathAll = %+v", got)
	}

	u := &registrar{
		students: []student{{"ann", "math", 3.9}, {"bob", "cs", 3.7}, {"cora", "math", 3.8}},
		courses:  []string{"databases", "ai", "logic"},
		prereq:   [][2]string{{"databases", "ai"}, {"ai", "logic"}},
		teach:    map[string]string{"databases": "susan", "ai": "rita"},
		taught:   []taughtRec{{"susan", "databases", "f89"}, {"tom", "databases", "f88"}},
		enroll:   map[string][]string{"databases": {"ann", "bob"}},
		complete: []completion{
			{"ann", "databases", "f89", 3.6},  // honor, >3.3, taught by the current teacher: yes
			{"cora", "databases", "f88", 3.6}, // taught then by tom, who does not teach it now: no
			{"cora", "ai", "f89", 4},          // a 4 needs no teacher: yes
			{"bob", "ai", "f89", 4},           // 3.7 is not above 3.7: not honor
		},
	}
	want := map[[2]string]bool{{"ann", "databases"}: true, {"cora", "ai"}: true}
	if got := u.canTA(); !reflect.DeepEqual(got, want) {
		t.Errorf("canTA = %v", got)
	}
	if got := u.honorEnrolled(u.enroll["databases"]); got.full != "honor(ann)" {
		t.Errorf("honorEnrolled = %+v", got)
	}
	if got := u.example2("databases", "math"); got.full != "answer(ann)" {
		t.Errorf("example2 = %+v", got)
	}
	if got := u.prior(); got.count != 3 || !strings.Contains(got.full, "prior(databases, logic)") {
		t.Errorf("prior = %+v", got)
	}
}

func TestCanonIgnoresVariableNamesAndOrder(t *testing.T) {
	a := canon("p(X, Y) <- q(X, Z1) and Z1 > 3\np(X, Y) <- true")
	b := canon("p(A, B) <- true\np(A, B) <- q(A, C) and C > 3")
	if a != b {
		t.Errorf("renamed and reordered answers differ:\n%s\n%s", a, b)
	}
	if canon("p(X, Y) <- q(X, Y)") == canon("p(X, Y) <- q(Y, X)") {
		t.Error("canon equated answers that bind differently")
	}
}

func TestPercentilesAndQuartiles(t *testing.T) {
	var v []float64
	for i := 10; i >= 1; i-- {
		v = append(v, float64(i))
	}
	s := sortedCopy(v)
	if percentile(s, 50) != 5 || percentile(s, 90) != 9 || percentile(s, 100) != 10 {
		t.Errorf("percentiles = %v %v %v", percentile(s, 50), percentile(s, 90), percentile(s, 100))
	}
	if median(v) != 5.5 {
		t.Errorf("median = %v", median(v))
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q2, q3 := quartiles(v); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	if got := spread(v); got != 1 {
		t.Errorf("spread = %v", got)
	}
	for n, want := range map[int]float64{50: 50, 99: 50, 100: 90, 999: 90, 1000: 99, 100000: 99.99} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
	x := []float64{math.Log(100), math.Log(200), math.Log(400)}
	y := []float64{math.Log(3), math.Log(12), math.Log(48)}
	if got := slope(x, y); math.Abs(got-2) > 1e-9 {
		t.Errorf("slope = %v, want 2", got)
	}
}

func TestSelfTimeIsDurationMinusChildren(t *testing.T) {
	s := summarize([]span{
		{ID: 1, Name: "op", Start: 0, End: 300, Parent: 0, Op: 1},
		{ID: 2, Name: "stmt", Start: 0, End: 100, Parent: 1, Op: 1},
		{ID: 3, Name: "parser", Start: 100, End: 130, Parent: 2, Op: 1},
		{ID: 4, Name: "kb.retrieve", Start: 130, End: 180, Parent: 2, Op: 1},
		{ID: 5, Name: "eval", Start: 180, End: 240, Parent: 4, Op: 1}, // slower than the call it repeats
	})
	if s.self("stmt") != 20 || s.self("parser") != 30 || s.self("kb.retrieve") != 0 || s.self("eval") != 60 {
		t.Errorf("self = %v", s.selfDurs)
	}
	if s.total("stmt") != 100 || s.medianUS("eval") != 0.06 {
		t.Errorf("total %v median %v", s.total("stmt"), s.medianUS("eval"))
	}
	if got := perOpMS([]span{{Name: "stmt", End: 2e6, Op: 1}, {Name: "stmt", End: 3e6, Op: 1}, {Name: "eval", End: 9e6, Op: 1}}, "stmt"); !reflect.DeepEqual(got, []float64{5}) {
		t.Errorf("perOpMS = %v", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	cases := []struct {
		new    []float64
		better string
		want   string
	}{
		{scale(1.05), "lower", "ok"},
		{scale(1.2), "lower", "regressed"},
		{scale(0.8), "lower", "ok"},
		{scale(0.8), "higher", "regressed"},
		{scale(1.2), "higher", "ok"},
		{[]float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}, "lower", "unresolved"},
	}
	for _, c := range cases {
		if _, _, got := verdict(steady, c.new, c.better, 0.10); got != c.want {
			t.Errorf("median %v, better %s: %s, want %s", median(c.new), c.better, got, c.want)
		}
	}
}

// A wrong reference must surface as a failed statement and a failing
// command, at both check levels.
func TestCorruptReferenceFailsTheRun(t *testing.T) {
	corrupt := func(full bool) *workload {
		return &workload{name: "closure", warmup: 1, setups: 1, clients: 1, setup: func(seed int64, scale float64) (instance, error) {
			inst, err := setupClosure(seed, scale)
			if err == nil {
				want := &inst.(*graphInstance).script[0].want
				if full {
					want.full = strings.Replace(want.full, "n0001", "n9999", 1)
				} else {
					want.count++
				}
			}
			return inst, err
		}}
	}
	for _, full := range []bool{true, false} {
		r, err := runUntraced(corrupt(full), 1, smallScale, 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if r.Failed == 0 || resultError(r) == nil {
			t.Errorf("corrupt reference (full=%v) went unnoticed: %+v", full, r)
		}
	}
	r, err := runUntraced(findWorkload("closure"), 1, smallScale, 50*time.Millisecond)
	if err != nil || resultError(r) != nil {
		t.Errorf("intact reference failed: %v %v", err, resultError(r))
	}
}

func TestTracedPassWritesSpansAndRepeatsCounts(t *testing.T) {
	dir := t.TempDir()
	counts := []string{"eval.derived_per_answer", "eval.lookups_per_answer", "eval.iterations",
		"storage.probes_per_answer", "storage.candidates_per_probe", "storage.fullscan_ratio", "storage.index_builds"}
	for _, name := range []string{"closure", "describe", "durable", "serve"} {
		w := *findWorkload(name)
		w.traceOps = 2
		first, err := runTraced(&w, 1, smallScale, dir)
		if err != nil {
			t.Fatal(err)
		}
		if first.Failed != 0 {
			t.Errorf("%s: %d statements failed", name, first.Failed)
		}
		for _, d := range perLayer {
			if _, ok := first.Metrics[d.name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", name, d.name)
			}
		}
		if first.Metrics["trace.overhead_ratio"] <= 0 {
			t.Errorf("%s: trace.overhead_ratio = %v", name, first.Metrics["trace.overhead_ratio"])
		}
		data, err := os.ReadFile(filepath.Join(dir, name+".trace.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		ids := map[int]bool{0: true}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		for _, ln := range lines {
			var s span
			if err := json.Unmarshal([]byte(ln), &s); err != nil {
				t.Fatalf("%s: span line %q: %v", name, ln, err)
			}
			if !ids[s.Parent] || s.Op <= 0 || s.End < s.Start || s.Name == "" {
				t.Errorf("%s: malformed span %+v", name, s)
			}
			ids[s.ID] = true
		}
		if name != "closure" {
			continue
		}
		second, err := runTraced(&w, 1, smallScale, dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range counts {
			if first.Metrics[c] != second.Metrics[c] || first.Metrics[c] == 0 && c != "storage.fullscan_ratio" {
				t.Errorf("%s: %v then %v; program-made counts must repeat", c, first.Metrics[c], second.Metrics[c])
			}
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and the harness must name the same workloads and
// metrics, within the limits the acceptance driver sets.
func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	var spec benchmarkSpec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the harness", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts differ: %d/%d end-to-end, %d/%d per-layer", len(spec.EndToEnd), len(endToEnd), len(spec.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	check := func(name, unit, better string) {
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) || (better != "lower" && better != "higher") || seen[name] {
			t.Errorf("metric %q (unit %q, better %q) breaks the contract or repeats", name, unit, better)
		}
		seen[name] = true
	}
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound || m.Bound > 0.25 || m.Bound > spec.EndToEnd[0].Bound {
			t.Errorf("end-to-end metric %d: %+v in BENCHMARK.json, %+v in the harness", i, m, d)
		}
		check(m.Name, m.Unit, m.Better)
	}
	for i, m := range spec.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: %+v in BENCHMARK.json, %+v in the harness", i, m, d)
		}
		check(m.Name, m.Unit, m.Better)
	}
	if !seen["setup_s"] || len(spec.PerLayer) > 128 || len(spec.EndToEnd) > 16 {
		t.Error("setup_s missing, or too many metrics")
	}
}

func TestSlowdownIsTheNeighbourhoodMedianOverNominal(t *testing.T) {
	s := newSpeedClock()
	// One sample every 100 ms for two seconds: the first second at the
	// nominal time, the second at twice that, with one wild sample.
	for i := 0; i < 20; i++ {
		s.at = append(s.at, time.Duration(i)*100*time.Millisecond)
		ns := float64(refNominalNS)
		if i >= 10 {
			ns *= 2
		}
		s.ns = append(s.ns, ns)
	}
	s.ns[4] *= 10
	for at, want := range map[time.Duration]float64{400 * time.Millisecond: 1, 1500 * time.Millisecond: 2, 5 * time.Second: 2} {
		if got := s.slowdown(s.t0.Add(at)); got != want {
			t.Errorf("slowdown at %v = %v, want %v", at, got, want)
		}
	}
	if got := newSpeedClock().slowdown(time.Now()); got != 1 {
		t.Errorf("slowdown without samples = %v, want 1", got)
	}
	// The kernel is deterministic and leaves its table full.
	s.kernel()
	held := 0
	for _, sl := range s.table {
		if sl.key != 0 {
			held++
		}
	}
	if held != refKeyings {
		t.Errorf("kernel holds %d keys, want %d", held, refKeyings)
	}
}
