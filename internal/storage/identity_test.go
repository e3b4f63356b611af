package storage

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"kdb/internal/term"
)

// One identity for a term, wherever it is kept: == is the codec key's
// equality and the kind-then-text-or-bits comparison that tuples were
// checked with before a term carried its word; equal terms hash equal,
// wherever they were built; and a term stays 32 bytes.

// textIdentity is that earlier comparison: kind, then a number's bit
// pattern or the name.
func textIdentity(x, y term.Term) bool {
	if x.Kind() != y.Kind() {
		return false
	}
	if x.Kind() == term.KindNumber {
		return math.Float64bits(x.Float()) == math.Float64bits(y.Float())
	}
	return x.Name() == y.Name()
}

// identityNumbers are the number edge cases: both zeros, two NaNs apart
// in their payloads, the infinities and the subnormals.
var identityNumbers = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0xfff8000000000001),
	math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), 1, -1, 3.9, math.MaxFloat64,
}

// identityTerms draws terms: symbols and strings over the same texts
// (the empty one, a number's, long names differing in their last byte),
// the number edge cases, and random names and bit patterns.
func identityTerms(rng *rand.Rand) []term.Term {
	names := []string{"", "a", "b", "ab", "0", "NaN", strings.Repeat("x", 300), strings.Repeat("x", 299) + "y"}
	for range 8 {
		names = append(names, fmt.Sprintf("v%d", rng.Intn(20)))
	}
	var ts []term.Term
	for _, n := range names {
		ts = append(ts, term.Sym(n), term.Str(n))
	}
	nums := slices.Clone(identityNumbers)
	for range 8 {
		nums = append(nums, math.Float64frombits(rng.Uint64()))
	}
	for _, v := range nums {
		ts = append(ts, term.Num(v))
	}
	return ts
}

// checkTermIdentity holds a pair of terms to the one identity.
func checkTermIdentity(t *testing.T, x, y term.Term) {
	t.Helper()
	same := x == y
	for _, c := range []struct {
		name string
		got  bool
	}{
		{"the codec keys are equal", bytes.Equal(appendTermKey(nil, x), appendTermKey(nil, y))},
		{"kind, then text or bits, are equal", textIdentity(x, y)},
		{"SameTuple", SameTuple([]term.Term{x}, []term.Term{y})},
		{"Matches", Matches([]term.Term{x}, Tuple{y})},
		{"Compare is 0", x.Compare(y) == 0},
	} {
		if c.got != same {
			t.Fatalf("%#v == %#v is %v, but %s is %v", x, y, same, c.name, c.got)
		}
	}
	if same && (x.Hash() != y.Hash() || HashTerms([]term.Term{x, y}, AllColumns) != HashTerms([]term.Term{y, x}, AllColumns)) {
		t.Fatalf("%#v and %#v are equal, hashed apart", x, y)
	}
	// A term decoded from its key is the term itself.
	for _, u := range []term.Term{x, y} {
		back, rest, err := decodeTerm(appendTermKey(nil, u))
		if err != nil || len(rest) != 0 || back != u || back.Hash() != u.Hash() {
			t.Fatalf("%#v decodes to %#v (%d bytes left, %v)", u, back, len(rest), err)
		}
	}
}

// TestTermIdentity holds every pair of generated terms to the identity,
// under the real words and hashes and under forced collisions (with every
// word on one value, two names share a word and are still two
// constants), and pins the size of a term.
func TestTermIdentity(t *testing.T) {
	if n := unsafe.Sizeof(term.Term{}); n != 32 {
		t.Fatalf("a term is %d bytes, want 32", n)
	}
	for _, h := range hashHooks {
		t.Run("hash="+h.name, func(t *testing.T) {
			forceHash(t, h.hook)
			a, b := term.Sym("a"), term.Sym("b")
			if h.name == "constant" && a.Hash() != b.Hash() {
				t.Fatal("the constant hook left a and b on two words")
			}
			if SameTuple([]term.Term{a}, []term.Term{b}) {
				t.Fatal("a and b are one constant")
			}
			r := mustRelation(t, 1)
			for _, tp := range []Tuple{{a}, {b}} {
				if fresh, err := r.Insert(tp); err != nil || !fresh {
					t.Fatalf("Insert(%v) = %v, %v; want a new fact", tp, fresh, err)
				}
			}
			for seed := int64(1); seed <= 3; seed++ {
				ts := identityTerms(rand.New(rand.NewSource(seed)))
				for _, x := range ts {
					for _, y := range ts {
						checkTermIdentity(t, x, y)
					}
				}
			}
		})
	}
}

// FuzzTermIdentity holds two terms, each a symbol, a string or a number
// by its kind byte, to the identity.
func FuzzTermIdentity(f *testing.F) {
	for _, v := range identityNumbers {
		f.Add(byte(2), "", math.Float64bits(v), byte(2), "", math.Float64bits(0))
	}
	f.Add(byte(0), "a", uint64(0), byte(1), "a", uint64(0))
	f.Add(byte(0), strings.Repeat("x", 300), uint64(0), byte(0), strings.Repeat("x", 299)+"y", uint64(0))
	f.Add(byte(1), "NaN", uint64(0), byte(2), "", math.Float64bits(math.NaN()))
	build := func(kind byte, text string, bits uint64) term.Term {
		switch kind % 3 {
		case 0:
			return term.Sym(text)
		case 1:
			return term.Str(text)
		default:
			return term.Num(math.Float64frombits(bits))
		}
	}
	f.Fuzz(func(t *testing.T, k1 byte, s1 string, n1 uint64, k2 byte, s2 string, n2 uint64) {
		x, y := build(k1, s1, n1), build(k2, s2, n2)
		checkTermIdentity(t, x, y)
		checkTermIdentity(t, x, build(k1, s1, n1))
	})
}

// TestRelationMatchesNumbersByBits: a probe's constants and repeated
// variables agree with a stored tuple by the identity, whatever serves
// the probe — the exact index, a subset index whose candidates the
// pattern check narrows, or a scan: a NaN agrees with itself, and -0
// does not agree with 0.
func TestRelationMatchesNumbersByBits(t *testing.T) {
	nan, zero, negZero := term.Num(math.NaN()), term.Num(0), term.Num(math.Copysign(0, -1))
	for _, h := range hashHooks {
		t.Run("hash="+h.name, func(t *testing.T) {
			forceHash(t, h.hook)
			a, b, c := term.Sym("a"), term.Sym("b"), term.Sym("c")
			x, y, z := term.Var("X"), term.Var("Y"), term.Var("Z")
			r := mustRelation(t, 3)
			for _, tp := range []Tuple{{zero, a, b}, {nan, a, b}, {zero, negZero, c}, {nan, nan, c}} {
				if _, err := r.Insert(tp); err != nil {
					t.Fatal(err)
				}
			}
			selectKeys(t, r, []term.Term{x, y, b}) // builds the index on the third column
			for _, tc := range []struct {
				name    string
				pattern []term.Term
				subset  bool
				want    []Tuple
			}{
				{"subset index, NaN", []term.Term{nan, y, b}, true, []Tuple{{nan, a, b}}},
				{"subset index, -0", []term.Term{negZero, y, b}, true, nil},
				{"exact index, NaN", []term.Term{nan, y, z}, false, []Tuple{{nan, a, b}, {nan, nan, c}}},
				{"exact index, -0", []term.Term{negZero, y, z}, false, nil},
				{"scan, repeated variable", []term.Term{x, x, z}, false, []Tuple{{nan, nan, c}}},
			} {
				if got := servedBySubset(r, maskOf(tc.pattern)); got != tc.subset {
					t.Fatalf("%s: served by a subset index: %v", tc.name, got)
				}
				var want []string
				for _, tp := range tc.want {
					want = append(want, tp.Key())
				}
				slices.Sort(want)
				if got := selectKeys(t, r, tc.pattern); !slices.Equal(got, want) {
					t.Errorf("%s: SelectCounted(%v) = %q, want %q", tc.name, tc.pattern, got, want)
				}
			}
		})
	}
}

// maskOf is the mask of a pattern's constants.
func maskOf(pattern []term.Term) uint64 {
	var mask uint64
	for i, p := range pattern {
		if p.IsConst() {
			mask |= 1 << uint(i)
		}
	}
	return mask
}
