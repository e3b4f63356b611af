package storage

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"

	"kdb/internal/term"
)

func tup(args ...term.Term) Tuple { return Tuple(args) }

func mustRelation(t *testing.T, arity int) *Relation {
	t.Helper()
	r, err := NewRelation(arity)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRelationInsertAndDedup(t *testing.T) {
	r := mustRelation(t, 2)
	fresh, err := r.Insert(tup(term.Sym("a"), term.Num(1)))
	if err != nil || !fresh {
		t.Fatalf("first insert: fresh=%v err=%v", fresh, err)
	}
	fresh, err = r.Insert(tup(term.Sym("a"), term.Num(1)))
	if err != nil || fresh {
		t.Fatalf("duplicate insert: fresh=%v err=%v", fresh, err)
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d, want 1", r.Len())
	}
	if !r.Contains(tup(term.Sym("a"), term.Num(1))) {
		t.Error("Contains must find the tuple")
	}
	if r.Contains(tup(term.Sym("a"), term.Num(2))) {
		t.Error("Contains must not find absent tuples")
	}
}

func TestRelationInsertErrors(t *testing.T) {
	r := mustRelation(t, 2)
	if _, err := r.Insert(tup(term.Sym("a"))); err == nil {
		t.Error("wrong arity must fail")
	}
	if _, err := r.Insert(tup(term.Var("X"), term.Sym("a"))); err == nil {
		t.Error("non-ground tuple must fail")
	}
}

func TestTupleKeyDistinguishesKinds(t *testing.T) {
	// Symbol "a" vs string "a" vs number encodings must not collide, and
	// adjacent strings must not be confused by concatenation.
	keys := map[string]Tuple{}
	for _, tp := range []Tuple{
		tup(term.Sym("a"), term.Sym("b")),
		tup(term.Sym("ab"), term.Sym("")),
		tup(term.Str("a"), term.Sym("b")),
		tup(term.Sym("a"), term.Str("b")),
		tup(term.Num(1), term.Num(2)),
		tup(term.Num(12), term.Num(0)),
	} {
		k := tp.Key()
		if prev, dup := keys[k]; dup {
			t.Errorf("key collision between %v and %v", prev, tp)
		}
		keys[k] = tp
	}
}

func TestRelationScanOrder(t *testing.T) {
	r := mustRelation(t, 1)
	for i := 0; i < 5; i++ {
		if _, err := r.Insert(tup(term.Num(float64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	var got []float64
	r.Scan(func(tp Tuple) bool {
		got = append(got, tp[0].Float())
		return true
	})
	for i, v := range got {
		if v != float64(i) {
			t.Fatalf("scan order = %v", got)
		}
	}
	// Early stop.
	n := 0
	r.Scan(func(Tuple) bool { n++; return n < 2 })
	if n != 2 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestRelationSelect(t *testing.T) {
	r := mustRelation(t, 3)
	data := []Tuple{
		tup(term.Sym("ann"), term.Sym("math"), term.Num(3.9)),
		tup(term.Sym("bob"), term.Sym("cs"), term.Num(3.5)),
		tup(term.Sym("cid"), term.Sym("math"), term.Num(3.2)),
	}
	for _, d := range data {
		if _, err := r.Insert(d); err != nil {
			t.Fatal(err)
		}
	}
	count := func(pattern []term.Term) int {
		n := 0
		if err := r.Select(pattern, func(Tuple) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	x, y, z := term.Var("X"), term.Var("Y"), term.Var("Z")
	if got := count([]term.Term{x, y, z}); got != 3 {
		t.Errorf("full scan = %d, want 3", got)
	}
	if got := count([]term.Term{x, term.Sym("math"), z}); got != 2 {
		t.Errorf("math students = %d, want 2", got)
	}
	if got := count([]term.Term{term.Sym("ann"), term.Sym("math"), z}); got != 1 {
		t.Errorf("ann math = %d, want 1", got)
	}
	if got := count([]term.Term{term.Sym("ann"), term.Sym("cs"), z}); got != 0 {
		t.Errorf("ann cs = %d, want 0", got)
	}
	// Index reuse after more inserts (incremental maintenance).
	if _, err := r.Insert(tup(term.Sym("dee"), term.Sym("math"), term.Num(4))); err != nil {
		t.Fatal(err)
	}
	if got := count([]term.Term{x, term.Sym("math"), z}); got != 3 {
		t.Errorf("math students after insert = %d, want 3", got)
	}
	// Arity error.
	if err := r.Select([]term.Term{x}, func(Tuple) bool { return true }); err == nil {
		t.Error("pattern arity mismatch must fail")
	}
}

func TestRelationSelectRepeatedVariable(t *testing.T) {
	r := mustRelation(t, 2)
	for _, d := range []Tuple{
		tup(term.Sym("a"), term.Sym("a")),
		tup(term.Sym("a"), term.Sym("b")),
		tup(term.Sym("b"), term.Sym("b")),
	} {
		if _, err := r.Insert(d); err != nil {
			t.Fatal(err)
		}
	}
	x := term.Var("X")
	n := 0
	if err := r.Select([]term.Term{x, x}, func(Tuple) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("p(X, X) matches = %d, want 2", n)
	}
}

func TestStoreBasics(t *testing.T) {
	s := NewMemory()
	fresh, err := s.InsertAtom(term.NewAtom("student", term.Sym("ann"), term.Sym("math"), term.Num(3.9)))
	if err != nil || !fresh {
		t.Fatalf("insert: %v %v", fresh, err)
	}
	if s.Count("student") != 1 || s.Count("ghost") != 0 {
		t.Error("Count misreports")
	}
	if !s.Contains(term.NewAtom("student", term.Sym("ann"), term.Sym("math"), term.Num(3.9))) {
		t.Error("Contains must find the fact")
	}
	if s.Contains(term.NewAtom("student", term.Sym("ann"))) {
		t.Error("arity-mismatched Contains must be false")
	}
	if _, err := s.InsertAtom(term.NewAtom("p", term.Var("X"))); err == nil {
		t.Error("non-ground InsertAtom must fail")
	}
	if got := s.Preds(); len(got) != 1 || got[0] != "student" {
		t.Errorf("Preds = %v", got)
	}
	facts := s.Facts("student")
	if len(facts) != 1 || facts[0].Pred != "student" {
		t.Errorf("Facts = %v", facts)
	}
	if s.Facts("ghost") != nil {
		t.Error("Facts of unknown predicate must be nil")
	}
	if s.Dir() != "" {
		t.Error("memory store has no dir")
	}
}

func TestStoreMatch(t *testing.T) {
	s := NewMemory()
	for _, f := range []string{"ann", "bob", "cid"} {
		if _, err := s.InsertAtom(term.NewAtom("enroll", term.Sym(f), term.Sym("databases"))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.InsertAtom(term.NewAtom("enroll", term.Sym("ann"), term.Sym("ai"))); err != nil {
		t.Fatal(err)
	}
	x := term.Var("X")
	var got []string
	enroll := s.Relation("enroll")
	err := enroll.Select([]term.Term{x, term.Sym("databases")}, func(t Tuple) bool {
		got = append(got, t[0].Name())
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Errorf("matches = %v", got)
	}
	// A bound position narrows the match.
	n := 0
	if err := enroll.Select([]term.Term{term.Sym("ann"), term.Var("C")}, func(Tuple) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("ann enrollments = %d, want 2", n)
	}
	// Unknown predicate: no relation.
	if r := s.Relation("ghost"); r != nil {
		t.Errorf("unknown predicate has relation %v", r)
	}
	// Arity mismatch is an error.
	if err := enroll.Select([]term.Term{x}, func(Tuple) bool { return true }); err == nil {
		t.Error("arity mismatch must fail")
	}
	// Early stop.
	n = 0
	if err := enroll.Select([]term.Term{x, term.Var("C")}, func(Tuple) bool { n++; return false }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestStoreConcurrentInsertAndMatch(t *testing.T) {
	s := NewMemory()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_, err := s.Insert("p", tup(term.Num(float64(g)), term.Num(float64(i))))
				if err != nil {
					t.Error(err)
					return
				}
				_ = s.Relation("p").Select([]term.Term{term.Num(float64(g)), term.Var("X")}, func(Tuple) bool { return true })
			}
		}(g)
	}
	wg.Wait()
	if got := s.Count("p"); got != 8*200 {
		t.Errorf("Count = %d, want %d", got, 8*200)
	}
}

// --- durability ---

func TestOpenEmptyAndPersist(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := s.Insert("edge", tup(term.Num(float64(i)), term.Num(float64(i+1)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: WAL replay restores everything.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Count("edge"); got != 10 {
		t.Errorf("recovered %d tuples, want 10", got)
	}
	if !s2.Contains(term.NewAtom("edge", term.Num(3), term.Num(4))) {
		t.Error("recovered store missing a fact")
	}
}

func TestCheckpointAndRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := s.Insert("p", tup(term.Num(float64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint inserts land in the fresh WAL.
	for i := 5; i < 8; i++ {
		if _, err := s.Insert("p", tup(term.Num(float64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Count("p"); got != 8 {
		t.Errorf("recovered %d tuples, want 8", got)
	}
	// The WAL must be small after checkpoint (3 records, not 8).
	st, err := os.Stat(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() > 200 {
		t.Errorf("WAL size %d suspiciously large after checkpoint", st.Size())
	}
}

func TestTornWALTailIsTruncated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := s.Insert("p", tup(term.Num(float64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: append garbage half-record.
	path := filepath.Join(dir, walName)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x20, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("recovery must tolerate a torn tail: %v", err)
	}
	if got := s2.Count("p"); got != 4 {
		t.Errorf("recovered %d tuples, want 4", got)
	}
	// The torn bytes must be gone; appending must work again.
	if _, err := s2.Insert("p", tup(term.Num(99))); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got := s3.Count("p"); got != 5 {
		t.Errorf("after torn-tail recovery + insert, recovered %d, want 5", got)
	}
}

func TestCorruptRecordCRC(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Insert("p", tup(term.Num(float64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	// Flip a byte in the last record's payload.
	path := filepath.Join(dir, walName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-6] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("CRC corruption must be survivable: %v", err)
	}
	defer s2.Close()
	if got := s2.Count("p"); got != 2 {
		t.Errorf("recovered %d tuples, want 2 (corrupt record dropped)", got)
	}
}

func TestSnapshotRoundTripAllKinds(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	facts := []term.Atom{
		term.NewAtom("mix", term.Sym("sym"), term.Num(-3.25), term.Str("a \"quoted\"\nstring")),
		term.NewAtom("mix", term.Sym(""), term.Num(0), term.Str("")),
		term.NewAtom("solo", term.Num(1e100)),
	}
	for _, f := range facts {
		if _, err := s.InsertAtom(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for _, f := range facts {
		if !s2.Contains(f) {
			t.Errorf("fact %v lost in snapshot round trip", f)
		}
	}
}

func TestQuickCodecRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(5)
		tp := make(Tuple, n)
		for i := range tp {
			switch r.Intn(3) {
			case 0:
				tp[i] = term.Num(r.NormFloat64() * 100)
			case 1:
				tp[i] = term.Sym(fmt.Sprintf("s%d", r.Intn(100)))
			default:
				tp[i] = term.Str(fmt.Sprintf("str %d\x00with nul", r.Intn(100)))
			}
		}
		pred := fmt.Sprintf("pred%d", r.Intn(10))
		enc, err := encodeFact(pred, tp)
		if err != nil {
			return false
		}
		got, gotTuple, err := decodeFact(enc)
		if err != nil || got != pred || len(gotTuple) != len(tp) {
			return false
		}
		for i := range tp {
			if gotTuple[i] != tp[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestDecodeFactErrors(t *testing.T) {
	good, err := encodeFact("p", tup(term.Num(1), term.Sym("a")))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(good); cut++ {
		if _, _, err := decodeFact(good[:cut]); err == nil {
			t.Errorf("truncation at %d must fail", cut)
		}
	}
	if _, _, err := decodeFact(append(good, 0x00)); err == nil {
		t.Error("trailing bytes must fail")
	}
}

func BenchmarkStorageInsert(b *testing.B) {
	s := NewMemory()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Insert("p", tup(term.Num(float64(i)), term.Num(float64(i+1)))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStorageIndexedLookup(b *testing.B) {
	s := NewMemory()
	for i := 0; i < 10000; i++ {
		if _, err := s.Insert("edge", tup(term.Num(float64(i)), term.Num(float64(i+1)))); err != nil {
			b.Fatal(err)
		}
	}
	x := term.Var("X")
	edge := s.Relation("edge")
	// Warm the index.
	_ = edge.Select([]term.Term{term.Num(0), x}, func(Tuple) bool { return true })
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := 0
		_ = edge.Select([]term.Term{term.Num(float64(i % 10000)), x}, func(Tuple) bool { n++; return true })
		if n != 1 {
			b.Fatalf("matches = %d", n)
		}
	}
}

func BenchmarkStorageFullScan(b *testing.B) {
	s := NewMemory()
	for i := 0; i < 10000; i++ {
		if _, err := s.Insert("edge", tup(term.Num(float64(i)), term.Num(float64(i+1)))); err != nil {
			b.Fatal(err)
		}
	}
	x, y := term.Var("X"), term.Var("Y")
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := 0
		_ = s.Relation("edge").Select([]term.Term{x, y}, func(Tuple) bool { n++; return true })
		if n != 10000 {
			b.Fatalf("matches = %d", n)
		}
	}
}

func BenchmarkWALAppend(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Insert("p", tup(term.Num(float64(i)))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWALReplay(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		if _, err := s.Insert("p", tup(term.Num(float64(i)), term.Sym("x"))); err != nil {
			b.Fatal(err)
		}
	}
	s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s2, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		if s2.Count("p") != 5000 {
			b.Fatal("bad replay")
		}
		s2.Close()
	}
}
