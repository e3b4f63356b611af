package storage

import (
	"os"
	"path/filepath"
	"testing"

	"kdb/internal/term"
)

func TestNewRelationRejectsBadArity(t *testing.T) {
	for _, arity := range []int{-1, 64} {
		if _, err := NewRelation(arity); err == nil {
			t.Errorf("NewRelation(%d) must fail", arity)
		}
	}
	// 0 and 63 are fine.
	if r, err := NewRelation(0); err != nil || r.Arity() != 0 {
		t.Errorf("arity 0 must be allowed (propositional facts): %v", err)
	}
	if r, err := NewRelation(63); err != nil || r.Arity() != 63 {
		t.Errorf("arity 63 must be allowed: %v", err)
	}
}

func TestZeroArityRelation(t *testing.T) {
	s := NewMemory()
	fresh, err := s.InsertAtom(term.NewAtom("ready"))
	if err != nil || !fresh {
		t.Fatalf("insert: %v %v", fresh, err)
	}
	if !s.Contains(term.NewAtom("ready")) {
		t.Error("propositional fact lost")
	}
	n := 0
	if err := s.Relation("ready").Select(nil, func(Tuple) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("matches = %d", n)
	}
}

func TestCheckpointOnMemoryStoreIsNoop(t *testing.T) {
	s := NewMemory()
	if _, err := s.Insert("p", Tuple{term.Num(1)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Errorf("memory checkpoint: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("memory close: %v", err)
	}
}

func TestOpenRejectsForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walName), []byte("not a wal at all, definitely"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Error("foreign WAL must be rejected, not silently overwritten")
	}
	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, snapshotName), []byte("junk snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir2); err == nil {
		t.Error("foreign snapshot must be rejected")
	}
}

func TestCorruptSnapshotRecordFails(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Insert("p", Tuple{term.Num(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Corrupt a byte inside the snapshot body: unlike the WAL (where a
	// torn tail is expected), snapshot corruption is a hard error.
	path := filepath.Join(dir, snapshotName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Error("corrupt snapshot must fail loudly")
	}
}

func TestDoubleCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Insert("p", Tuple{term.Sym("a")}); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("second checkpoint: %v", err)
	}
	if _, err := s.Insert("p", Tuple{term.Sym("b")}); err != nil {
		t.Fatal(err)
	}
}

func TestReopenAfterCheckpointAndMoreWrites(t *testing.T) {
	dir := t.TempDir()
	for round := 0; round < 3; round++ {
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got := s.Count("p"); got != round*2 {
			t.Fatalf("round %d recovered %d, want %d", round, got, round*2)
		}
		for i := 0; i < 2; i++ {
			if _, err := s.Insert("p", Tuple{term.Num(float64(round)), term.Num(float64(i))}); err != nil {
				t.Fatal(err)
			}
		}
		if round%2 == 0 {
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTupleCloneIndependence(t *testing.T) {
	orig := Tuple{term.Sym("a"), term.Num(1)}
	c := orig.Clone()
	c[0] = term.Sym("b")
	if orig[0] != term.Sym("a") {
		t.Error("Clone must be independent")
	}
}

func TestSelectEmptyRelation(t *testing.T) {
	r := mustRelation(t, 2)
	n := 0
	if err := r.Select([]term.Term{term.Var("X"), term.Var("Y")}, func(Tuple) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("matches = %d", n)
	}
	if err := r.Select([]term.Term{term.Sym("a"), term.Var("Y")}, func(Tuple) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("indexed matches = %d", n)
	}
}
