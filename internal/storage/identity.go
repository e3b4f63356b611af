package storage

import (
	"slices"

	"kdb/internal/term"
)

// The identity of a tuple, shared by the stored relations here and by the
// evaluator's derived tables: one hash, one equality and one pattern
// check, so that a fact is the same fact wherever it is kept.

// Matches reports whether the tuple agrees with the pattern's constants
// and with repeated pattern variables: a variable's position must hold
// what the variable's earlier position holds. Agreement is ==, the
// identity SameTuple checks, so a NaN matches itself and 0 does not
// match -0.
func Matches(pattern []term.Term, t Tuple) bool {
	for i, p := range pattern {
		if p.IsConst() {
			if p != t[i] {
				return false
			}
			continue
		}
		for j := range i {
			if pattern[j] == p {
				if t[j] != t[i] {
					return false
				}
				break
			}
		}
	}
	return true
}

// AllColumns is the mask of a whole-tuple hash.
const AllColumns = ^uint64(0)

// CollideHook, when a test sets it, replaces every hash with its image,
// so that a constant or two-valued hash drives the collision paths. It is
// nil outside tests.
var CollideHook func(uint64) uint64

// HashTerms hashes the masked columns of t by the identity SameTuple
// checks: each term's hash (term.Term.Hash, the word a symbol or a
// string computed when it was built) and its kind are folded into the
// running hash, so that the order of the columns matters.
func HashTerms(t []term.Term, mask uint64) uint64 {
	var h uint64
	for i, x := range t {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		h = fold(h ^ x.Hash() + uint64(x.Kind()))
	}
	if CollideHook != nil {
		return CollideHook(h)
	}
	return h
}

// fold is the finalizer of SplitMix64: a bijection that spreads every
// input bit over the whole word.
func fold(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

// SameTuple reports whether a and b are one fact: their terms are ==,
// which is the identity the codec key encodes (a number equals only its
// own bit pattern) and compares each term's word before its text.
func SameTuple(a, b []term.Term) bool { return slices.Equal(a, b) }
