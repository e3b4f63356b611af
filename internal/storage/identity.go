package storage

import (
	"hash/maphash"
	"math"

	"kdb/internal/term"
)

// The identity of a tuple, shared by the stored relations here and by the
// evaluator's derived tables: one hash, one equality and one pattern
// check, so that a fact is the same fact wherever it is kept.

// Matches reports whether the tuple agrees with the pattern's constants
// and with repeated pattern variables: a variable's position must hold
// what the variable's earlier position holds.
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

// hashSeed keys every hash a relation or a derived table computes. It is drawn once per
// process: no hash outlives the process or leaves it.
var hashSeed = maphash.MakeSeed()

// CollideHook, when a test sets it, replaces every hash with its image,
// so that a constant or two-valued hash drives the collision paths. It is
// nil outside tests.
var CollideHook func(uint64) uint64

// HashTerms hashes the masked columns of t by the identity SameTuple
// checks: kind, then the name, numbers by bit pattern. Each term is
// hashed on its own and folded into the running hash, so that the order
// of the columns matters.
func HashTerms(t []term.Term, mask uint64) uint64 {
	var h uint64
	for i, x := range t {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		var v uint64
		if x.Kind() == term.KindNumber {
			v = maphash.Comparable(hashSeed, math.Float64bits(x.Float()))
		} else {
			v = maphash.String(hashSeed, x.Name())
		}
		h = fold(h ^ v + uint64(x.Kind()))
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

// SameTuple reports whether a and b are one fact: the identity the codec
// key encodes, so a number equals only its own bit pattern.
func SameTuple(a, b []term.Term) bool {
	if len(a) != len(b) {
		return false
	}
	for i, x := range a {
		y := b[i]
		if x.Kind() != y.Kind() {
			return false
		}
		if x.Kind() == term.KindNumber {
			if math.Float64bits(x.Float()) != math.Float64bits(y.Float()) {
				return false
			}
		} else if x.Name() != y.Name() {
			return false
		}
	}
	return true
}
