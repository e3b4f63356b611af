package storage

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"testing"
	"time"

	"kdb/internal/fault"
	"kdb/internal/term"
)

// factNames collects the first argument of every stored p-fact, sorted
// — the canonical shape the crash tests compare against.
func factNames(s *Store) []string {
	var out []string
	for _, a := range s.Facts("p") {
		out = append(out, a.Args[0].Name())
	}
	sort.Strings(out)
	return out
}

func insertNames(t *testing.T, s *Store, names ...string) {
	t.Helper()
	for _, n := range names {
		if _, err := s.Insert("p", Tuple{term.Sym(n)}); err != nil {
			t.Fatalf("insert %s: %v", n, err)
		}
	}
}

// TestCheckpointCrashAfterRename injects a crash in the checkpoint
// window between the snapshot rename and the WAL reset: the new
// snapshot and the old (pre-checkpoint) log are both on disk. Reopen
// must land on the checkpointed state — replaying the stale log over
// the fresh snapshot is idempotent for inserts and a no-op for
// tombstones of facts the snapshot already dropped.
func TestCheckpointCrashAfterRename(t *testing.T) {
	t.Cleanup(fault.Reset)
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	insertNames(t, s, "a", "b", "c")
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	insertNames(t, s, "d")
	if removed, err := s.Delete("p", Tuple{term.Sym("b")}); err != nil || !removed {
		t.Fatalf("delete b: removed=%v err=%v", removed, err)
	}
	want := []string{"a", "c", "d"}

	if err := fault.Enable(fault.SiteCheckpointReset, fault.Outcome{Err: fault.ErrInjected}, fault.Policy{Times: 1}); err != nil {
		t.Fatal(err)
	}
	err = s.Checkpoint()
	if !errors.Is(err, ErrDurability) || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("checkpoint error %v, want ErrDurability wrapping the injection", err)
	}
	fault.Reset()
	// Crash: abandon the handle without Close and recover from disk.
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after checkpoint crash: %v", err)
	}
	if got := factNames(s2); !equalStrings(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	// The store must be fully functional: another checkpoint and another
	// reopen round-trip the same state.
	if err := s2.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after recovery: %v", err)
	}
	s2.Close()
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got := factNames(s3); !equalStrings(got, want) {
		t.Fatalf("after recovery checkpoint: %v, want %v", got, want)
	}
}

// TestCheckpointCrashBeforeRename injects the crash on the other side
// of the window — the snapshot temp file was written but never
// published. Reopen must land on the other consistent state: the old
// snapshot plus the intact log, which replays to the same facts.
func TestCheckpointCrashBeforeRename(t *testing.T) {
	t.Cleanup(fault.Reset)
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	insertNames(t, s, "a", "b")
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	insertNames(t, s, "c")
	if removed, err := s.Delete("p", Tuple{term.Sym("a")}); err != nil || !removed {
		t.Fatalf("delete a: removed=%v err=%v", removed, err)
	}
	want := []string{"b", "c"}

	if err := fault.Enable(fault.SiteSnapshotRename, fault.Outcome{Err: fault.ErrInjected}, fault.Policy{Times: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("checkpoint error %v, want the injection", err)
	}
	fault.Reset()
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after rename crash: %v", err)
	}
	defer s2.Close()
	if got := factNames(s2); !equalStrings(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
}

// TestTornWriteInjectionRecovery arms the torn-write outcome: the
// append persists only a prefix of the frame and poisons the log, as
// a crash mid-write would. Reopen must truncate the torn tail — the
// durable prefix survives, the half-written fact does not.
func TestTornWriteInjectionRecovery(t *testing.T) {
	t.Cleanup(fault.Reset)
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	insertNames(t, s, "a", "b")
	if err := fault.Enable(fault.SiteWALAppend, fault.Outcome{TornBytes: 3}, fault.Policy{Times: 1}); err != nil {
		t.Fatal(err)
	}
	_, err = s.Insert("p", Tuple{term.Sym("victim")})
	if !errors.Is(err, ErrDurability) || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("torn insert error %v, want ErrDurability wrapping the injection", err)
	}
	if s.DurabilityErr() == nil {
		t.Fatal("torn write must poison the log")
	}
	// The poison is sticky: later appends fail without touching disk.
	if _, err := s.Insert("p", Tuple{term.Sym("after")}); !errors.Is(err, ErrDurability) {
		t.Fatalf("append on poisoned log: %v, want ErrDurability", err)
	}
	fault.Reset()
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after torn write: %v", err)
	}
	defer s2.Close()
	if got := factNames(s2); !equalStrings(got, []string{"a", "b"}) {
		t.Fatalf("recovered %v, want the durable prefix [a b]", got)
	}
	if _, err := s2.Insert("p", Tuple{term.Sym("c")}); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
}

// TestWALSyncFaultRewindsCleanly: an injected fsync failure takes the
// production rewind path; the log stays healthy and later appends and
// reopens see only the acknowledged facts.
func TestWALSyncFaultRewindsCleanly(t *testing.T) {
	t.Cleanup(fault.Reset)
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	insertNames(t, s, "a")
	if err := fault.Enable(fault.SiteWALSync, fault.Outcome{Err: fault.ErrInjected}, fault.Policy{Times: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert("p", Tuple{term.Sym("lost")}); !errors.Is(err, ErrDurability) {
		t.Fatalf("insert during sync fault: %v, want ErrDurability", err)
	}
	if s.DurabilityErr() != nil {
		t.Fatalf("a clean rewind must not poison the log: %v", s.DurabilityErr())
	}
	insertNames(t, s, "b")
	fault.Reset()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	// "lost" reached RAM but never the log; only a and b are durable.
	if got := factNames(s2); !equalStrings(got, []string{"a", "b"}) {
		t.Fatalf("recovered %v, want [a b]", got)
	}
}

// TestReplayFaultFailsOpenStructured: a fault during recovery surfaces
// as an error from Open, not a half-recovered store.
func TestReplayFaultFailsOpenStructured(t *testing.T) {
	t.Cleanup(fault.Reset)
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	insertNames(t, s, "a", "b")
	s.Close()
	if err := fault.Enable(fault.SiteWALReplay, fault.Outcome{Err: fault.ErrInjected}, fault.Policy{SkipFirst: 1, Times: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("open during replay fault: %v, want the injection", err)
	}
	fault.Reset()
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("open after fault cleared: %v", err)
	}
	defer s2.Close()
	if got := factNames(s2); !equalStrings(got, []string{"a", "b"}) {
		t.Fatalf("recovered %v, want [a b]", got)
	}
}

// TestSnapshotTempOrphansSweptOnOpen: crash-orphaned kdb.snap.tmp*
// files are removed at the next Open instead of accumulating.
func TestSnapshotTempOrphansSweptOnOpen(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"kdb.snap.tmp123", "kdb.snap.tmp999x"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("orphan"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	left, err := filepath.Glob(filepath.Join(dir, "kdb.snap.tmp*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("orphans survived open: %v", left)
	}
}

// TestSnapshotFaultLeavesNoTemp: every writeSnapshot error path —
// here an injected temp-file sync failure and a rename failure —
// must remove the temp file.
func TestSnapshotFaultLeavesNoTemp(t *testing.T) {
	t.Cleanup(fault.Reset)
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	insertNames(t, s, "a")
	for _, site := range []string{fault.SiteSnapshotSync, fault.SiteSnapshotRename} {
		if err := fault.Enable(site, fault.Outcome{Err: fault.ErrInjected}, fault.Policy{Times: 1}); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("%s: checkpoint error %v, want the injection", site, err)
		}
		left, err := filepath.Glob(filepath.Join(dir, "kdb.snap.tmp*"))
		if err != nil {
			t.Fatal(err)
		}
		if len(left) != 0 {
			t.Fatalf("%s: temp files left behind: %v", site, left)
		}
		fault.Reset()
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after faults cleared: %v", err)
	}
}

// TestSyncDirTolerance: EINVAL and ENOTSUP from a directory fsync are
// tolerated (filesystems that cannot sync directories), while any
// other failure still fails the operation.
func TestSyncDirTolerance(t *testing.T) {
	t.Cleanup(fault.Reset)
	for _, errno := range []error{syscall.EINVAL, syscall.ENOTSUP} {
		if err := fault.Enable(fault.SiteDirSync, fault.Outcome{Err: errno}, fault.Policy{}); err != nil {
			t.Fatal(err)
		}
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatalf("open under %v dir-sync: %v (want tolerated)", errno, err)
		}
		insertNames(t, s, "a")
		if err := s.Checkpoint(); err != nil {
			t.Fatalf("checkpoint under %v dir-sync: %v (want tolerated)", errno, err)
		}
		s.Close()
		fault.Reset()
	}
	if ignorableSyncErr(errors.New("io failure")) {
		t.Skip("platform tolerates all directory-sync errors")
	}
	if err := fault.Enable(fault.SiteDirSync, fault.Outcome{Err: fault.ErrInjected}, fault.Policy{}); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(t.TempDir()); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("open under injected dir-sync failure: %v, want the failure to propagate", err)
	}
}

// TestWALFailpointDisabledZeroAlloc is the acceptance gate: with no
// failpoint armed, the checks compiled into the WAL hot path cost
// zero allocations (and, by the benchmark in internal/fault, one
// atomic load each).
func TestWALFailpointDisabledZeroAlloc(t *testing.T) {
	fault.Reset()
	allocs := testing.AllocsPerRun(1000, func() {
		if o := fault.Eval(fault.SiteWALAppend); o != nil {
			t.Fatal("disabled failpoint triggered")
		}
		if err := fault.Inject(fault.SiteWALSync); err != nil {
			t.Fatal(err)
		}
		if err := fault.Inject(fault.SiteWALFlush); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled failpoint checks allocate %.1f objects per append, want 0", allocs)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// pAtoms builds p(name) facts, the batch shape of a program load.
func pAtoms(names ...string) []term.Atom {
	out := make([]term.Atom, len(names))
	for i, n := range names {
		out[i] = term.Atom{Pred: "p", Args: []term.Term{term.Sym(n)}}
	}
	return out
}

func walSize(t *testing.T, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// syncCounter counts the log's fsyncs.
type syncCounter struct{ syncs, appends int }

func (c *syncCounter) ObserveWALAppend(time.Duration, int)  { c.appends++ }
func (c *syncCounter) ObserveWALSync(time.Duration)         { c.syncs++ }
func (c *syncCounter) ObserveSnapshot(time.Duration, int64) {}

// TestBatchOneSync: a batch is acknowledged as a unit — one flush and
// one fsync however many facts it holds — and reopens complete.
func TestBatchOneSync(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	insertNames(t, s, "a")
	var c syncCounter
	s.SetObserver(&c)
	// "a" is already stored and "b" repeats: neither is logged twice.
	n, err := s.InsertAtoms(pAtoms("a", "b", "c", "b", "d"))
	if err != nil || n != 3 {
		t.Fatalf("InsertAtoms = %d, %v; want 3 new facts", n, err)
	}
	if c.syncs != 1 || c.appends != 1 {
		t.Fatalf("batch of 3 took %d fsyncs in %d appends, want 1 and 1", c.syncs, c.appends)
	}
	if n, err := s.InsertAtoms(pAtoms("a", "d")); err != nil || n != 0 || c.syncs != 1 {
		t.Fatalf("all-duplicate batch = %d, %v with %d fsyncs; want 0, nil and no new fsync", n, err, c.syncs)
	}
	s2, err := Open(dir) // crash: no Close
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := factNames(s2); !equalStrings(got, []string{"a", "b", "c", "d"}) {
		t.Fatalf("recovered %v, want [a b c d]", got)
	}
}

// TestBatchSyncFaultRewindsWholeBatch: an fsync failure under a
// multi-fact batch takes the rewind path — ErrDurability, the file back
// at its durable offset, none of the batch on disk, the log healthy.
func TestBatchSyncFaultRewindsWholeBatch(t *testing.T) {
	t.Cleanup(fault.Reset)
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	insertNames(t, s, "a")
	before := walSize(t, dir)
	if err := fault.Enable(fault.SiteWALSync, fault.Outcome{Err: fault.ErrInjected}, fault.Policy{Times: 1}); err != nil {
		t.Fatal(err)
	}
	n, err := s.InsertAtoms(pAtoms("l1", "l2", "l3"))
	if !errors.Is(err, ErrDurability) || !errors.Is(err, fault.ErrInjected) || n != 3 {
		t.Fatalf("InsertAtoms under sync fault = %d, %v; want 3 facts in RAM and ErrDurability", n, err)
	}
	if got := factNames(s); !equalStrings(got, []string{"a", "l1", "l2", "l3"}) {
		t.Fatalf("RAM holds %v, want the whole batch", got)
	}
	if s.DurabilityErr() != nil {
		t.Fatalf("a clean rewind must not poison the log: %v", s.DurabilityErr())
	}
	if got := walSize(t, dir); got != before {
		t.Fatalf("log is %d bytes after the rewind, durable offset was %d", got, before)
	}
	insertNames(t, s, "b") // the next append is clean
	fault.Reset()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := factNames(s2); !equalStrings(got, []string{"a", "b"}) {
		t.Fatalf("recovered %v, want [a b] and none of the batch", got)
	}
}

// TestBatchTornWriteKeepsPrefix: a crash mid-batch (torn frame at the
// third record) poisons the log; reopen keeps exactly the records
// framed before it.
func TestBatchTornWriteKeepsPrefix(t *testing.T) {
	t.Cleanup(fault.Reset)
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	insertNames(t, s, "a")
	if err := fault.Enable(fault.SiteWALAppend, fault.Outcome{TornBytes: 3}, fault.Policy{SkipFirst: 2, Times: 1}); err != nil {
		t.Fatal(err)
	}
	_, err = s.InsertAtoms(pAtoms("b1", "b2", "b3", "b4"))
	if !errors.Is(err, ErrDurability) || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("torn batch error %v, want ErrDurability wrapping the injection", err)
	}
	if s.DurabilityErr() == nil {
		t.Fatal("torn write must poison the log")
	}
	if _, err := s.InsertAtoms(pAtoms("after")); !errors.Is(err, ErrDurability) {
		t.Fatalf("batch on poisoned log: %v, want ErrDurability", err)
	}
	fault.Reset()
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after torn batch: %v", err)
	}
	defer s2.Close()
	if got := factNames(s2); !equalStrings(got, []string{"a", "b1", "b2"}) {
		t.Fatalf("recovered %v, want the valid prefix [a b1 b2]", got)
	}
	if n, err := s2.InsertAtoms(pAtoms("c", "d")); err != nil || n != 2 {
		t.Fatalf("batch after recovery = %d, %v", n, err)
	}
}

// TestBatchValidationErrorLogsPrefix: a fact that fails validation stops
// the batch, and what was stored before it is logged — RAM and log may
// only differ under ErrDurability.
func TestBatchValidationErrorLogsPrefix(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	batch := pAtoms("a", "b", "bad", "c")
	batch[2].Args = append(batch[2].Args, term.Sym("extra")) // arity 2 into p/1
	n, err := s.InsertAtoms(batch)
	if err == nil || errors.Is(err, ErrDurability) || n != 2 {
		t.Fatalf("InsertAtoms = %d, %v; want 2 stored and a plain validation error", n, err)
	}
	if got := factNames(s); !equalStrings(got, []string{"a", "b"}) {
		t.Fatalf("RAM holds %v, want [a b]", got)
	}
	s2, err := Open(dir) // crash: no Close
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := factNames(s2); !equalStrings(got, []string{"a", "b"}) {
		t.Fatalf("recovered %v, want RAM's [a b]", got)
	}
}
