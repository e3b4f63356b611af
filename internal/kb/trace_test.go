package kb

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"kdb/internal/core"
	"kdb/internal/eval"
	"kdb/internal/governor"
	"kdb/internal/obs"
	"kdb/internal/parser"
	"kdb/internal/term"
)

// phase is one span a statement's trace must hold: its name, its
// duration (negative when the record does not hold it) and attributes,
// and its children.
type phase struct {
	name  string
	dur   time.Duration
	attrs map[string]any
	kids  []phase
}

// wantPhases is the span tree a statement's record calls for, written out
// field by field from the record: the evaluation's, the describe
// searches', kb's own walls. parsed says the statement came as text.
func wantPhases(res *ExecResult, stats *eval.EvalStats, parsed bool) []phase {
	var out []phase
	if parsed {
		out = append(out, phase{name: "parse", dur: -1, attrs: map[string]any{}})
	}
	if st := stats; st != nil {
		ev := phase{name: "eval", dur: st.Wall, attrs: map[string]any{
			"engine": st.Engine, "components": int64(len(st.Components)),
			"facts": int64(st.Facts), "lookups": st.Lookups}}
		if st.StopReason != "" {
			ev.attrs["stop"] = st.StopReason
		}
		for _, c := range st.Components {
			ev.kids = append(ev.kids, phase{name: "scc", dur: c.Wall, attrs: map[string]any{
				"preds": strings.Join(c.Preds, " "), "iterations": int64(c.Iterations),
				"facts": int64(c.Facts), "lookups": c.Lookups, "recursive": c.Recursive}})
		}
		out = append(out, phase{name: "analyze", dur: st.Plan, attrs: map[string]any{}}, ev,
			phase{name: "storage", attrs: map[string]any{
				"probes": st.Probes, "candidates": st.Candidates, "index_builds": st.IndexBuilds}})
	}
	if res == nil {
		return out
	}
	var search *core.SearchStats
	formulas := 0
	switch {
	case res.Describe != nil:
		search, formulas = &res.Describe.SearchStats, len(res.Describe.Formulas)
	case res.Knowledge != nil:
		search, formulas = &res.Knowledge.SearchStats, len(res.Knowledge.Formulas)
	case res.wildcard:
		search = &res.wildcardSearch
		for _, e := range res.Wildcard {
			formulas += len(e.Answers.Formulas)
		}
	}
	if search != nil {
		out = append(out,
			phase{name: "analyze", dur: res.analyzeWall, attrs: map[string]any{}},
			phase{name: "eval", dur: search.SearchWall, attrs: map[string]any{
				"algorithm": int64(search.Algorithm), "nodes": int64(search.Nodes), "truncated": search.Truncated}},
			phase{name: "describe", dur: search.PostWall, attrs: map[string]any{"formulas": int64(formulas)}})
	}
	if e := res.Explanation; e != nil {
		out = append(out, phase{name: "explain", dur: res.explainWall, attrs: map[string]any{
			"trees": int64(len(e.Trees)), "nodes": int64(e.Nodes)}})
	}
	return out
}

// checkPhases holds the children of sp to want, and every span under sp
// to lie inside its parent, after its elder sibling, in the root's trace.
func checkPhases(t *testing.T, stmt string, sp *obs.Span, want []phase, trace uint64) {
	t.Helper()
	kids := sp.Children()
	var names, wantNames []string
	for _, k := range kids {
		names = append(names, k.Name())
	}
	for _, w := range want {
		wantNames = append(wantNames, w.name)
	}
	if !reflect.DeepEqual(names, wantNames) {
		t.Errorf("%s: %s children = %v, want %v", stmt, sp.Name(), names, wantNames)
		return
	}
	end := sp.Start().Add(sp.Duration())
	at := sp.Start()
	for i, k := range kids {
		w := want[i]
		if k.TraceID() != trace {
			t.Errorf("%s: %s trace id %d, want the root's %d", stmt, k.Name(), k.TraceID(), trace)
		}
		if w.dur >= 0 && k.Duration() != w.dur {
			t.Errorf("%s: %s lasts %v, its record says %v", stmt, k.Name(), k.Duration(), w.dur)
		}
		if k.Start().Before(at) {
			t.Errorf("%s: %s starts %v before its elder sibling ends", stmt, k.Name(), at.Sub(k.Start()))
		}
		at = k.Start().Add(k.Duration())
		if at.After(end) {
			t.Errorf("%s: %s ends %v after its parent %s", stmt, k.Name(), at.Sub(end), sp.Name())
		}
		got := map[string]any{}
		for _, a := range k.Attrs() {
			got[a.Key] = a.Value()
		}
		if !reflect.DeepEqual(got, w.attrs) {
			t.Errorf("%s: %s attributes = %v, record says %v", stmt, k.Name(), got, w.attrs)
		}
		checkPhases(t, stmt, k, w.kids, trace)
	}
}

// TestTraceIsTheRecord runs every statement form over the shipped
// programs and holds each statement's trace to its record: the phases its
// record calls for and no others, each as long as the wall its record
// holds and carrying its record's counts, every child inside its parent
// and after its elder sibling, every span in the root's trace.
func TestTraceIsTheRecord(t *testing.T) {
	files, err := filepath.Glob("../../testdata/*.kdb")
	if err != nil || len(files) != 3 {
		t.Fatalf("shipped programs: %v, %v", files, err)
	}
	forms := map[string]bool{}
	for _, f := range files {
		tr := obs.NewTracer()
		k := New(WithTracer(tr))
		if err := k.LoadFile(f); err != nil {
			t.Fatal(err)
		}
		run := func(ctx context.Context, stmt string) {
			t.Helper()
			res, err := k.ExecStringContext(ctx, stmt)
			var stats *eval.EvalStats
			var se *eval.StopError
			switch {
			case errors.As(err, &se):
				stats = se.Stats
				forms["stop"] = true
			case err != nil:
				t.Fatalf("%s: %v", stmt, err)
			default:
				stats = res.Stats
				q, _ := parser.ParseQuery(stmt)
				forms[formOf(q)] = true
				forms["intensional"] = forms["intensional"] || res.Knowledge != nil
			}
			root := tr.Last()
			if root == nil || root.Name() != "query" {
				t.Fatalf("%s: no query trace", stmt)
			}
			checkPhases(t, filepath.Base(f)+": "+stmt, root, wantPhases(res, stats, true), root.TraceID())
		}
		seen := map[string]bool{}
		for _, r := range k.Rules() {
			h := r.Head
			if seen[h.Pred] || len(r.Body) == 0 {
				continue
			}
			seen[h.Pred] = true
			subject := term.NewAtom(h.Pred, variables("W", len(h.Args))...).String()
			hyp := firstOrdinary(r.Body).String()
			for _, stmt := range []string{
				"retrieve " + subject + ".",
				"retrieve " + subject + " where " + subject + " or " + subject + ".",
				"profile " + subject + ".",
				"explain " + subject + ".",
				"describe " + subject + ".",
				"describe " + subject + " where " + hyp + ".",
				"describe " + subject + " where " + hyp + " or " + hyp + ".",
				"describe * where " + hyp + ".",
			} {
				run(context.Background(), stmt)
			}
			if k.prog.graph.IsRecursivePred(h.Pred) {
				run(ContextWithLimits(context.Background(), governor.Limits{MaxFacts: 1}), "retrieve "+subject+".")
			}
			k.SetIntensional(true)
			run(context.Background(), "retrieve "+subject+".")
			k.SetIntensional(false)
		}
	}
	for _, form := range []string{"retrieve", "or-retrieve", "profile", "explain", "describe", "or-describe", "wildcard", "intensional", "stop"} {
		if !forms[form] {
			t.Errorf("no statement of form %s ran", form)
		}
	}
}

// formOf names a statement's form for TestTraceIsTheRecord's coverage.
func formOf(q parser.Query) string {
	switch s := q.(type) {
	case *parser.Retrieve:
		if len(s.Or) > 0 {
			return "or-retrieve"
		}
		return "retrieve"
	case *parser.Describe:
		switch {
		case s.Wildcard:
			return "wildcard"
		case len(s.Or) > 0:
			return "or-describe"
		}
		return "describe"
	}
	return parser.Kind(q)
}

// variables returns n distinct variables named prefix1, prefix2, ….
func variables(prefix string, n int) []term.Term {
	out := make([]term.Term, n)
	for i := range out {
		out[i] = term.Var(fmt.Sprintf("%s%d", prefix, i+1))
	}
	return out
}

// firstOrdinary returns the first body atom that is not a comparison.
func firstOrdinary(body term.Formula) term.Atom {
	for _, a := range body {
		if !term.IsComparison(a) {
			return a
		}
	}
	return body[0]
}
