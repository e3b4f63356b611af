package eval

import (
	"testing"

	"kdb/internal/prov"
	"kdb/internal/term"
)

// TestProvenanceDisabledAllocs is the zero-overhead gate for the
// provenance hook: with recording off (nil recorder — the default for
// every engine), the derive-path call must not allocate. This mirrors
// the disabled-path gates of the obs package: observability that is
// off must be free.
func TestProvenanceDisabledAllocs(t *testing.T) {
	x, y := term.Var("X"), term.Var("Y")
	rule := term.NewRule(term.NewAtom("p", x, y), term.NewAtom("q", x, y))
	r := newRunner(rule, compileBody(rule.Head, rule.Body), nil)
	r.frame[0], r.frame[1] = term.Sym("a"), term.Sym("b")
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := r.fact(); err != nil {
			t.Fatal(err)
		}
		if err := recordProv(nil, nil, r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("disabled provenance hook allocates %v per derive, want 0", allocs)
	}
}

// TestProvenanceRecordingAcrossEngines checks the engine plumbing at
// the eval layer: with a recorder attached, every engine records one
// witness per derived fact and reports the count in its statistics.
func TestProvenanceRecordingAcrossEngines(t *testing.T) {
	src := `
edge(a, b). edge(b, c). edge(c, d).
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
`
	mks := map[string]func(Input, ...EngineOption) Engine{
		"naive":     NewNaive,
		"seminaive": NewSemiNaive,
		"topdown":   NewTopDown,
		"magic":     NewMagic,
	}
	for name, mk := range mks {
		in := load(t, src)
		rec := prov.NewRecorder()
		e := mk(in, WithProvenance(rec))
		res, err := e.Retrieve(query(t, `retrieve path(a, Y).`))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Tuples) != 3 {
			t.Fatalf("%s: %d answers, want 3", name, len(res.Tuples))
		}
		if rec.Len() == 0 {
			t.Errorf("%s: no witnesses recorded", name)
		}
		st := e.(StatsReporter).LastStats()
		if st.ProvEntries != rec.Len() {
			t.Errorf("%s: stats.ProvEntries = %d, recorder has %d", name, st.ProvEntries, rec.Len())
		}
		// Every recorded answer must reconstruct without unknown nodes.
		exp := rec.Explain(term.NewAtom("path", term.Sym("a"), term.Var("Y")),
			res.Atoms(term.NewAtom("path", term.Sym("a"), term.Var("Y"))),
			func(a term.Atom) bool { return in.Store.Contains(a) }, 0)
		var check func(n *prov.Node)
		check = func(n *prov.Node) {
			if n.Kind == prov.NodeUnknown {
				t.Errorf("%s: unknown node %v in tree", name, n.Fact)
			}
			for _, c := range n.Children {
				check(c)
			}
		}
		for _, tree := range exp.Trees {
			check(tree)
		}
	}
}

// benchProvenance measures a 50-node chain closure with and without
// recording; the Off variant doubles as the allocation baseline the
// overhead guard compares against.
func benchProvenance(b *testing.B, rec bool) {
	in := chainInput(b, 50)
	q := query(b, `retrieve path(X, Y).`)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var opts []EngineOption
		if rec {
			opts = append(opts, WithProvenance(prov.NewRecorder()))
		}
		e := NewSemiNaive(in, opts...)
		if _, err := e.Retrieve(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRetrieveProvenanceOff(b *testing.B) { benchProvenance(b, false) }
func BenchmarkRetrieveProvenanceOn(b *testing.B)  { benchProvenance(b, true) }
