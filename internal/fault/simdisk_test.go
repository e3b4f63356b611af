package fault

import (
	"errors"
	"io"
	"os"
	"syscall"
	"testing"
)

func write(t *testing.T, f File, s string) {
	t.Helper()
	if _, err := f.Write([]byte(s)); err != nil {
		t.Fatal(err)
	}
}

func syncFile(t *testing.T, f File) {
	t.Helper()
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
}

// contents reads name back, or reports it missing as "<none>".
func contents(t *testing.T, d *SimDisk, name string) string {
	t.Helper()
	f, err := d.Open(name)
	if errors.Is(err, os.ErrNotExist) {
		return "<none>"
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSimDiskCrashKeepsSynced: a crash keeps a file's synced bytes plus
// nothing, a torn prefix or all of its unsynced tail, and a file whose
// directory entry was never synced not at all.
func TestSimDiskCrashKeepsSynced(t *testing.T) {
	for _, tc := range []struct {
		keep      func(int) int
		dirSynced bool
		want      string
	}{
		{func(int) int { return 0 }, true, "abc"},
		{func(int) int { return 2 }, true, "abcde"},
		{func(n int) int { return n }, true, "abcdefg"},
		{func(n int) int { return n }, false, "abcdefg"},
		{func(int) int { return 0 }, false, "<none>"},
	} {
		d := NewSimDisk()
		if err := d.MkdirAll("db", 0o755); err != nil {
			t.Fatal(err)
		}
		f, err := d.OpenFile("db/f", os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		write(t, f, "abc")
		syncFile(t, f)
		write(t, f, "defg")
		if tc.dirSynced {
			dir, err := d.Open("db")
			if err != nil {
				t.Fatal(err)
			}
			syncFile(t, dir)
		}
		d.Crash(tc.keep)
		if got := contents(t, d, "db/f"); got != tc.want {
			t.Errorf("dir synced %v: after the crash f holds %q, want %q", tc.dirSynced, got, tc.want)
		}
		if _, err := f.Write([]byte("x")); err == nil {
			t.Error("a handle opened before the crash still writes")
		}
	}
}

// TestSimDiskRenameIsAtomic: an unsynced rename survives a crash whole
// or not at all, and a synced one always.
func TestSimDiskRenameIsAtomic(t *testing.T) {
	for keep, want := range map[int][2]string{0: {"old", "new"}, 1: {"new", "<none>"}} {
		d := NewSimDisk()
		d.MkdirAll("db", 0o755)
		for _, name := range []string{"db/snap", "db/tmp"} {
			f, _ := d.OpenFile(name, os.O_CREATE|os.O_RDWR, 0o644)
			write(t, f, map[string]string{"db/snap": "old", "db/tmp": "new"}[name])
			syncFile(t, f)
		}
		dir, _ := d.Open("db")
		syncFile(t, dir)
		if err := d.Rename("db/tmp", "db/snap"); err != nil {
			t.Fatal(err)
		}
		d.Crash(func(int) int { return keep })
		if got := [2]string{contents(t, d, "db/snap"), contents(t, d, "db/tmp")}; got != want {
			t.Errorf("keep %d of the rename: snap, tmp = %q, want %q", keep, got, want)
		}
	}
}

// TestSimDiskFaults: an armed fault skips, fails and counts the
// operations it names, matches both its errno and ErrInjected, and a
// failed write writes the first half of its bytes.
func TestSimDiskFaults(t *testing.T) {
	d := NewSimDisk()
	d.MkdirAll("db", 0o755)
	f, _ := d.OpenFile("db/f", os.O_CREATE|os.O_RDWR, 0o644)
	d.Fail(OpSync, 1, 1, syscall.EIO)
	syncFile(t, f)
	if err := f.Sync(); !errors.Is(err, syscall.EIO) || !errors.Is(err, ErrInjected) {
		t.Fatalf("second sync = %v, want the injected EIO", err)
	}
	syncFile(t, f)
	d.Fail(OpWrite, 0, 0, syscall.ENOSPC)
	if n, err := f.Write([]byte("abcd")); n != 2 || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("write on a full disk = %d, %v; want 2 bytes and ENOSPC", n, err)
	}
	if _, err := f.Write([]byte("ef")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("a fault armed for every write let one through: %v", err)
	}
	if got := d.Hits(); got != 3 {
		t.Fatalf("Hits = %d, want 3", got)
	}
	d.Heal()
	write(t, f, "g")
	if got := contents(t, d, "db/f"); got != "abeg" {
		t.Fatalf("f holds %q, want %q", got, "abeg")
	}
}

// TestOncePolicyAfterK: a fault armed to skip K operations and fail one
// fails exactly the operation after the first K of its kind.
func TestOncePolicyAfterK(t *testing.T) {
	d := NewSimDisk()
	d.MkdirAll("db", 0o755)
	f, _ := d.OpenFile("db/f", os.O_CREATE|os.O_RDWR, 0o644)
	d.Fail(OpSync, 2, 1, syscall.EIO)
	var fired []int
	for i := 0; i < 6; i++ {
		if f.Sync() != nil {
			fired = append(fired, i)
		}
	}
	if len(fired) != 1 || fired[0] != 2 || d.Hits() != 1 {
		t.Fatalf("fired on syncs %v (%d hits), want exactly sync 2", fired, d.Hits())
	}
}
