package kb

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"kdb/internal/obs"
)

// TestProfileStatement: the `profile p(…)` statement returns answers
// plus per-rule cost rows, and the rendering includes the annotated
// plan after the answers.
func TestProfileStatement(t *testing.T) {
	k := New()
	if err := k.LoadString(routesProgram); err != nil {
		t.Fatal(err)
	}
	res, err := k.ExecStringContext(context.Background(), "profile reachable(la, X).")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Profiled() {
		t.Fatal("profile statement returned no profile")
	}
	if len(res.Retrieve.Tuples) == 0 {
		t.Error("profile statement returned no answers")
	}
	if len(res.Stats.Profile) == 0 {
		t.Error("profile has no rows")
	}
	out := res.String()
	if !strings.Contains(out, "profile: engine=") {
		t.Errorf("rendering missing the profile section:\n%s", out)
	}
	if !strings.Contains(out, "reachable(la,") {
		t.Errorf("rendering missing the answers:\n%s", out)
	}
}

// TestSetProfiling: with always-on profiling, a plain retrieve carries
// a profile; switching it off restores the profile-free result.
func TestSetProfiling(t *testing.T) {
	k := New()
	if err := k.LoadString(routesProgram); err != nil {
		t.Fatal(err)
	}
	if k.Profiling() {
		t.Fatal("profiling on by default")
	}
	k.SetProfiling(true)
	res, err := k.ExecStringContext(context.Background(), "retrieve reachable(la, X).")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.Profile) == 0 {
		t.Error("always-on profiling attached no profile to retrieve")
	}
	k.SetProfiling(false)
	res, err = k.ExecStringContext(context.Background(), "retrieve reachable(la, X).")
	if err != nil {
		t.Fatal(err)
	}
	if res.Profiled() {
		t.Error("profile attached with profiling off")
	}
}

// TestProfilingOrRetrieve: with always-on profiling, a retrieve of
// several disjuncts is profiled like one of a single disjunct — one
// evaluation, one row per rule it ran, the query rule of each disjunct
// among them; the rows' tuples sum to the record's facts, and the
// rendering shows the profile after the answers.
func TestProfilingOrRetrieve(t *testing.T) {
	k := New()
	if err := k.LoadString(routesProgram); err != nil {
		t.Fatal(err)
	}
	k.SetProfiling(true)
	res, err := k.ExecStringContext(context.Background(), "retrieve reachable(la, Y) where Y = sf or Y = ny.")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.RetrieveLines(); len(got) != 2 {
		t.Fatalf("answers = %q, want reachable(la, ny) and reachable(la, sf)", got)
	}
	if len(res.Stats.Profile) == 0 {
		t.Fatal("an or retrieve under profiling has no profile rows")
	}
	var tuples int64
	for _, r := range res.Stats.Profile {
		tuples += r.Tuples
	}
	if tuples != int64(res.Stats.Facts) {
		t.Errorf("the rows' tuples sum to %d, the record's facts are %d", tuples, res.Stats.Facts)
	}
	if out := res.String(); !strings.Contains(out, "profile: engine=") {
		t.Errorf("rendering missing the profile section:\n%s", out)
	}
}

// TestQueryLogProfileRows: when a query is profiled, its query-log
// record carries the per-rule rows, so the slow log explains where a
// slow query spent its time.
func TestQueryLogProfileRows(t *testing.T) {
	var buf bytes.Buffer
	ql := obs.NewQueryLog(&buf, 0)
	k := New(WithQueryLog(ql))
	if err := k.LoadString(routesProgram); err != nil {
		t.Fatal(err)
	}
	if _, err := k.ExecStringContext(context.Background(), "profile reachable(la, X)."); err != nil {
		t.Fatal(err)
	}
	if _, err := k.ExecStringContext(context.Background(), "retrieve reachable(la, X)."); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d log lines, want 2:\n%s", len(lines), buf.String())
	}
	type rec struct {
		Kind    string `json:"kind"`
		Profile []struct {
			Rule   string `json:"rule"`
			WallNS int64  `json:"wall_ns"`
			Tuples int64  `json:"tuples"`
		} `json:"profile"`
	}
	var profiled, plain rec
	if err := json.Unmarshal([]byte(lines[0]), &profiled); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &plain); err != nil {
		t.Fatal(err)
	}
	if profiled.Kind != "profile" || len(profiled.Profile) == 0 {
		t.Errorf("profiled record = %s", lines[0])
	}
	var sawRule bool
	for _, r := range profiled.Profile {
		if strings.Contains(r.Rule, "reachable") {
			sawRule = true
		}
	}
	if !sawRule {
		t.Errorf("no reachable rule in the logged profile: %s", lines[0])
	}
	if plain.Profile != nil {
		t.Errorf("unprofiled record carries profile rows: %s", lines[1])
	}
}
