package storage

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"kdb/internal/term"
)

// The decoders read bytes a crash, a bad disk or a hostile hand may have
// written. On any input they return an error or a value, and never panic
// or hang.

// fuzzFacts are the seed facts: every term kind, the number edge cases,
// an empty tuple and a long name.
var fuzzFacts = []struct {
	pred string
	t    Tuple
}{
	{"edge", Tuple{term.Sym("a"), term.Sym("b")}},
	{"n", Tuple{term.Num(0), term.Num(math.Copysign(0, -1)), term.Num(math.NaN()), term.Num(math.Inf(1)), term.Num(-2.5)}},
	{"s", Tuple{term.Str("a \"quoted\" string"), term.Sym("a")}},
	{"flag", Tuple{}},
	{string(bytes.Repeat([]byte("p"), 200)), Tuple{term.Sym(string(bytes.Repeat([]byte("x"), 300)))}},
}

// fuzzRecords returns the seed facts as records: their payloads framed as
// the snapshot and the log frame them, with a tombstone for the first.
func fuzzRecords(f *testing.F, tombstone bool) []byte {
	var b bytes.Buffer
	for i, fact := range fuzzFacts {
		payload, err := encodeFact(fact.pred, fact.t)
		if err != nil {
			f.Fatal(err)
		}
		if tombstone && i == 0 {
			payload = append([]byte{tombstoneTag}, payload...)
		}
		if err := writeRecord(&b, payload); err != nil {
			f.Fatal(err)
		}
	}
	return b.Bytes()
}

// FuzzDecodeFact: decodeFact and decodeTerm accept any bytes. What
// decodeFact accepts encodes again and decodes to the same fact, and
// what decodeTerm leaves over is a suffix of its input.
func FuzzDecodeFact(f *testing.F) {
	for _, fact := range fuzzFacts {
		b, err := encodeFact(fact.pred, fact.t)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	f.Add([]byte{})
	f.Add([]byte{1, 'p', 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // arity 2^64-1
	f.Add([]byte{1, 'p', 1, 'x', 0})                                                  // unknown tag
	f.Fuzz(func(t *testing.T, b []byte) {
		if x, rest, err := decodeTerm(b); err == nil {
			if !bytes.HasSuffix(b, rest) || len(rest) >= len(b) {
				t.Fatalf("decodeTerm(%x) = %v, leaving %x: not a proper suffix", b, x, rest)
			}
		}
		pred, tp, err := decodeFact(b)
		if err != nil {
			return
		}
		enc, err := encodeFact(pred, tp)
		if err != nil {
			t.Fatalf("decoded %s%v does not encode: %v", pred, tp, err)
		}
		pred2, tp2, err := decodeFact(enc)
		if err != nil || pred2 != pred || !slices.EqualFunc(tp, tp2, func(a, b term.Term) bool { return SameTuple([]term.Term{a}, []term.Term{b}) }) {
			t.Fatalf("%x decodes to %s%v, which re-encodes to %s%v (%v)", b, pred, tp, pred2, tp2, err)
		}
	})
}

// FuzzReplayWAL: replaying any log applies a prefix of it and reports
// where that prefix ends; the file cut there replays to the same facts
// and ends at the same place.
func FuzzReplayWAL(f *testing.F) {
	f.Add(append([]byte(walMagic), fuzzRecords(f, true)...))
	f.Add(append([]byte(walMagic), fuzzRecords(f, false)[:40]...))
	f.Add([]byte(walMagic))
	f.Add([]byte("KDBWAL0"))
	f.Add(append([]byte(walMagic), 0x81, 0x80, 0x80, 0x08)) // a length past the record bound
	path := filepath.Join(f.TempDir(), walName)             // a worker runs one input at a time
	f.Fuzz(func(t *testing.T, b []byte) {
		replay := func(b []byte) (int64, []string, error) {
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			file, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer file.Close()
			var applied []string
			valid, err := replayWAL(file, func(pred string, tp Tuple, tombstone bool) error {
				if tombstone {
					pred = "-" + pred
				}
				applied = append(applied, pred+"\x00"+tp.Key())
				return nil
			})
			return valid, applied, err
		}
		valid, applied, err := replay(b)
		if err != nil {
			return
		}
		if valid < 0 || valid > int64(len(b)) {
			t.Fatalf("replay of %d bytes reports %d valid", len(b), valid)
		}
		again, reapplied, err := replay(b[:valid])
		if err != nil || again != valid || !slices.Equal(applied, reapplied) {
			t.Fatalf("the valid prefix of %d bytes replays to %d valid and %d facts (%v); the whole file to %d and %d",
				valid, again, len(reapplied), err, valid, len(applied))
		}
	})
}

// FuzzLoadSnapshot: loading any snapshot file into a store either fails
// or stores facts that all read back.
func FuzzLoadSnapshot(f *testing.F) {
	f.Add(append([]byte(snapshotMagic), fuzzRecords(f, false)...))
	f.Add(append([]byte(snapshotMagic), fuzzRecords(f, false)[:40]...))
	f.Add([]byte(snapshotMagic))
	f.Add([]byte{})
	path := filepath.Join(f.TempDir(), snapshotName)
	f.Fuzz(func(t *testing.T, b []byte) {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		s := NewMemory()
		if err := s.loadSnapshot(path); err != nil {
			return
		}
		for _, pred := range s.Preds() {
			s.Relation(pred).Scan(func(tp Tuple) bool {
				if !s.Contains(term.Atom{Pred: pred, Args: tp}) {
					t.Fatalf("loaded %s%v does not read back", pred, tp)
				}
				return true
			})
		}
	})
}
