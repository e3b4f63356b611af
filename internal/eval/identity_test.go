package eval

import (
	"context"
	"math"
	"slices"
	"testing"

	"kdb/internal/storage"
	"kdb/internal/term"
)

// TestEnginesMatchNumbersByBits: every engine finds a stored or a
// derived fact by the identity its relation keeps: p(NaN, Y) answers the
// stored p(NaN, a), and q(-0, Y) answers nothing beside q(0, a), since
// -0 and 0 are two constants, also where an index on another column
// serves the probe (r(-0, Y, b) after r(X, Y, b) built one).
func TestEnginesMatchNumbersByBits(t *testing.T) {
	nan, zero, negZero := term.Num(math.NaN()), term.Num(0), term.Num(math.Copysign(0, -1))
	a, b, x, y := term.Sym("a"), term.Sym("b"), term.Var("X"), term.Var("Y")
	st := storage.NewMemory()
	for _, f := range []term.Atom{term.NewAtom("p", nan, a), term.NewAtom("q", zero, a), term.NewAtom("r", zero, a, b)} {
		if _, err := st.InsertAtom(f); err != nil {
			t.Fatal(err)
		}
	}
	in := Input{Store: st, Rules: []term.Rule{
		term.NewRule(term.NewAtom("dp", x, y), term.NewAtom("p", x, y)),
		term.NewRule(term.NewAtom("dq", x, y), term.NewAtom("q", x, y)),
	}}
	for _, tc := range []struct {
		subject term.Atom
		want    []string
	}{
		{term.NewAtom("p", nan, y), []string{"a"}},
		{term.NewAtom("dp", nan, y), []string{"a"}},
		{term.NewAtom("q", negZero, y), nil},
		{term.NewAtom("dq", negZero, y), nil},
		{term.NewAtom("q", zero, y), []string{"a"}},
		{term.NewAtom("r", x, y, b), []string{"0"}},
		{term.NewAtom("r", negZero, y, b), nil},
	} {
		for _, e := range engines(in) {
			res, err := e.RetrieveContext(context.Background(), Query{Subject: tc.subject})
			if err != nil {
				t.Fatalf("%s: retrieve %v: %v", e.Name(), tc.subject, err)
			}
			var got []string
			for _, tp := range res.Tuples {
				got = append(got, tp[0].String())
			}
			if !slices.Equal(got, tc.want) {
				t.Errorf("%s: retrieve %v = %q, want %q", e.Name(), tc.subject, got, tc.want)
			}
		}
	}
}

// TestTableMatchesNumbersByBits is storage's
// TestRelationMatchesNumbersByBits on a derived table: whether the exact
// index, a subset index or a scan serves a probe, a NaN agrees with
// itself and -0 does not agree with 0.
func TestTableMatchesNumbersByBits(t *testing.T) {
	nan, zero, negZero := term.Num(math.NaN()), term.Num(0), term.Num(math.Copysign(0, -1))
	for _, h := range tableHashes {
		t.Run("hash="+h.name, func(t *testing.T) {
			forceTableHash(t, h.hook)
			a, b, c := term.Sym("a"), term.Sym("b"), term.Sym("c")
			x, y, z := term.Var("X"), term.Var("Y"), term.Var("Z")
			tb := mustTable(t, 3)
			for _, tp := range []storage.Tuple{{zero, a, b}, {nan, a, b}, {zero, negZero, c}, {nan, nan, c}} {
				if _, err := tb.insert(tp); err != nil {
					t.Fatal(err)
				}
			}
			tableKeys(t, tb, []term.Term{x, y, b}, 0, tb.n, nil) // builds the index on the third column
			for _, tc := range []struct {
				name    string
				pattern []term.Term
				builds  int64
				want    []storage.Tuple
			}{
				{"subset index, NaN", []term.Term{nan, y, b}, 0, []storage.Tuple{{nan, a, b}}},
				{"subset index, -0", []term.Term{negZero, y, b}, 0, nil},
				{"exact index, NaN", []term.Term{nan, y, z}, 1, []storage.Tuple{{nan, a, b}, {nan, nan, c}}},
				{"exact index, -0", []term.Term{negZero, y, z}, 0, nil},
				{"scan, repeated variable", []term.Term{x, x, z}, 0, []storage.Tuple{{nan, nan, c}}},
			} {
				var want []string
				for _, tp := range tc.want {
					want = append(want, tp.Key())
				}
				var cnt storage.Counters
				if got := tableKeys(t, tb, tc.pattern, 0, tb.n, &cnt); !slices.Equal(got, want) || cnt.IndexBuilds != tc.builds {
					t.Errorf("%s: probe %v = %q after %d index builds, want %q after %d", tc.name, tc.pattern, got, cnt.IndexBuilds, want, tc.builds)
				}
			}
		})
	}
}
