package storage

import (
	"errors"
	"path/filepath"
	"syscall"
	"testing"

	"kdb/internal/fault"
	"kdb/internal/term"
)

// TestWALRewindFaultPoisonsLog fails the truncate-to-durable recovery
// after a failed append: the log must come out poisoned (sticky
// ErrDurability on every later append), because the on-disk state past
// the durable offset is unknown.
func TestWALRewindFaultPoisonsLog(t *testing.T) {
	disk := useSimDisk(t)
	s, err := Open("db")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	insertNames(t, s, "a")

	// The disk fills up mid-flush; then the rewind's truncate fails.
	disk.Fail(fault.OpWrite, 0, 1, syscall.ENOSPC)
	disk.Fail(fault.OpTruncate, 0, 1, syscall.EIO)
	if _, err := s.Insert("p", Tuple{term.Sym("b")}); !errors.Is(err, ErrDurability) {
		t.Fatalf("append with failed flush: want ErrDurability, got %v", err)
	}
	if err := s.DurabilityErr(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("failed rewind must poison the log, got %v", err)
	}
	// The poison is sticky: later appends fail without touching disk.
	if _, err := s.Insert("p", Tuple{term.Sym("c")}); !errors.Is(err, ErrDurability) {
		t.Fatalf("append on poisoned log: want ErrDurability, got %v", err)
	}
}

// TestWALRewindSucceedsWithoutFault is the control: with only the
// flush failing (half its bytes written), the rewind truncates them,
// the log stays healthy, the next append succeeds, and a crash keeping
// every written byte recovers exactly the acknowledged fact.
func TestWALRewindSucceedsWithoutFault(t *testing.T) {
	disk := useSimDisk(t)
	s, err := Open("db")
	if err != nil {
		t.Fatal(err)
	}
	disk.Fail(fault.OpWrite, 0, 1, syscall.ENOSPC)
	if _, err := s.Insert("p", Tuple{term.Sym("a")}); !errors.Is(err, ErrDurability) {
		t.Fatalf("append with failed flush: want ErrDurability, got %v", err)
	}
	if err := s.DurabilityErr(); err != nil {
		t.Fatalf("clean rewind must not poison the log, got %v", err)
	}
	if _, err := s.Insert("p", Tuple{term.Sym("b")}); err != nil {
		t.Fatalf("append after clean rewind: %v", err)
	}
	disk.Crash(keepAll)
	s2, err := Open("db")
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := factNames(s2); !equalStrings(got, []string{"b"}) {
		t.Fatalf("recovered %v, want [b]", got)
	}
}

// TestSnapshotSweepFaultIsTolerated: an orphan the sweep cannot remove
// must not fail Open — the orphan simply survives to the next open,
// which removes it.
func TestSnapshotSweepFaultIsTolerated(t *testing.T) {
	disk := useSimDisk(t)
	dir := "db"
	if err := disk.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	orphan, err := disk.CreateTemp(dir, snapshotTemp+"*")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := orphan.Write([]byte("orphan")); err != nil {
		t.Fatal(err)
	}
	orphan.Close()
	disk.Fail(fault.OpRemove, 0, 1, syscall.EIO)
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("open with failed sweep must succeed, got %v", err)
	}
	insertNames(t, s, "a")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if left := snapshotTemps(t, dir); len(left) != 1 || left[0] != filepath.Base(orphan.Name()) {
		t.Fatalf("faulted sweep should have skipped the orphan, left %v", left)
	}

	// Next open runs without the fault: the orphan is gone and the data
	// intact.
	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if left := snapshotTemps(t, dir); len(left) != 0 {
		t.Fatalf("second open should have swept the orphan, left %v", left)
	}
	if got := factNames(s); len(got) != 1 || got[0] != "a" {
		t.Fatalf("recovered facts = %v, want [a]", got)
	}
}
