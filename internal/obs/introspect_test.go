package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// --- Build info ------------------------------------------------------

// TestRegisterBuildInfo checks the kdb_build_info gauge: value 1,
// labeled, and present in a valid exposition.
func TestRegisterBuildInfo(t *testing.T) {
	reg := NewRegistry()
	info := RegisterBuildInfo(reg)
	if info.GoVersion == "" {
		t.Error("build info missing the Go version")
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	text := buf.String()
	if !strings.Contains(text, "kdb_build_info{") || !strings.Contains(text, `goversion="`+info.GoVersion+`"`) {
		t.Errorf("exposition missing the build-info gauge:\n%s", text)
	}
	if err := validatePrometheus(text); err != nil {
		t.Fatalf("validation: %v", err)
	}
	if b, err := json.Marshal(info); err != nil || !strings.Contains(string(b), "go_version") {
		t.Errorf("BuildInfo JSON = %s, %v", b, err)
	}
}

// --- Traceparent -----------------------------------------------------

func TestParseTraceparent(t *testing.T) {
	cases := []struct {
		in   string
		want uint64
		ok   bool
	}{
		{"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", 0xa3ce929d0e0e4736, true},
		{" 00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01 ", 0xa3ce929d0e0e4736, true},
		{"00-00000000000000000000000000000000-00f067aa0ba902b7-01", 0, false}, // all-zero trace id
		{"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", 0, false}, // forbidden version
		{"00-4bf92f3577b34da6a3ce929d0e0e47-00f067aa0ba902b7-01", 0, false},   // short trace id
		{"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", 0, false}, // upper-case hex
		{"garbage", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		got, ok := ParseTraceparent(c.in)
		if got != c.want || ok != c.ok {
			t.Errorf("ParseTraceparent(%q) = (%#x, %v), want (%#x, %v)", c.in, got, ok, c.want, c.ok)
		}
	}
}

// --- Rotating query-log writer --------------------------------------

// TestRotatingWriter checks size-based rotation: the live file stays
// under the cap, shifted files appear as path.1..path.keep, and the
// oldest is deleted.
func TestRotatingWriter(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "q.log")
	// 1 MB cap; each write is ~512 KiB so every third write rotates.
	w, err := NewRotatingWriter(path, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	line := strings.Repeat("x", 512<<10-1) + "\n"
	for i := 0; i < 7; i++ {
		if _, err := w.Write([]byte(line)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatalf("live file: %v", err)
	}
	if fi.Size() > 1<<20 {
		t.Errorf("live file %d bytes, want <= 1MB", fi.Size())
	}
	if _, err := os.Stat(path + ".1"); err != nil {
		t.Errorf("missing first rotated file: %v", err)
	}
	if _, err := os.Stat(path + ".2"); err != nil {
		t.Errorf("missing second rotated file: %v", err)
	}
	if _, err := os.Stat(path + ".3"); !os.IsNotExist(err) {
		t.Errorf("rotation kept more than 2 old files (err=%v)", err)
	}
}

// TestRotatingWriterUnbounded: maxMB <= 0 must never rotate.
func TestRotatingWriterUnbounded(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "q.log")
	w, err := NewRotatingWriter(path, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		fmt.Fprintf(w, "%s\n", strings.Repeat("y", 1024))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".1"); !os.IsNotExist(err) {
		t.Errorf("unbounded writer rotated (err=%v)", err)
	}
}

// TestRotatingWriterReopen is the logrotate handshake: an external
// rotator renames the live file, the process reopens on signal, and
// subsequent writes land in a fresh file at the configured path.
func TestRotatingWriterReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "q.log")
	w, err := NewRotatingWriter(path, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Write([]byte("before\n")); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(path, path+".rotated"); err != nil {
		t.Fatal(err)
	}
	// Until the reopen, writes still go to the renamed inode.
	if _, err := w.Write([]byte("limbo\n")); err != nil {
		t.Fatal(err)
	}
	if err := w.Reopen(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("after\n")); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(path + ".rotated")
	if err != nil {
		t.Fatal(err)
	}
	if string(old) != "before\nlimbo\n" {
		t.Errorf("rotated file = %q", old)
	}
	fresh, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no fresh file after reopen: %v", err)
	}
	if string(fresh) != "after\n" {
		t.Errorf("fresh file = %q", fresh)
	}
}

// --- Activity registry ----------------------------------------------

// TestActivityRegistry covers the in-flight lifecycle: Begin lists the
// entry, progress updates show up in snapshots, Cancel fires the
// context's cancel func and flags the entry, End removes it.
func TestActivityRegistry(t *testing.T) {
	reg := NewActivityRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	a := reg.Begin("retrieve p(X).", "retrieve", "t1", "cli", 42, cancel)
	if a.ID() == 0 {
		t.Fatal("registered activity has id 0")
	}
	b := reg.Begin("describe q(X).", "describe", "t2", "", 0, nil)
	a.AddProgress(10, 5)
	a.AddProgress(1, 1)
	b.AddProgress(7, 3)

	snap := reg.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d entries, want 2", len(snap))
	}
	if snap[0].ID != a.ID() || snap[1].ID != b.ID() {
		t.Errorf("snapshot not ordered by id: %+v", snap)
	}
	if snap[0].Facts != 11 || snap[0].Lookups != 6 || snap[0].TraceID != 42 || snap[0].Tenant != "t1" {
		t.Errorf("entry a = %+v", snap[0])
	}
	if snap[1].Facts != 7 || snap[1].Lookups != 3 {
		t.Errorf("entry b = %+v", snap[1])
	}

	if !reg.Cancel(a.ID()) {
		t.Fatal("Cancel(a) = false")
	}
	select {
	case <-ctx.Done():
	default:
		t.Error("cancel did not fire the context")
	}
	// The canceled entry stays listed (flagged) until its owner ends it.
	snap = reg.Snapshot()
	if len(snap) != 2 || !snap[0].Canceled {
		t.Errorf("after cancel: %+v", snap)
	}
	if reg.Cancel(9999) {
		t.Error("Cancel(unknown) = true")
	}

	reg.End(a)
	reg.End(b)
	if n := reg.Len(); n != 0 {
		t.Errorf("after End: %d entries, want 0", n)
	}
	// Nil-safety: the disabled path must be inert.
	var nilReg *ActivityRegistry
	if nilReg.Begin("x", "y", "", "", 0, nil) != nil || nilReg.Cancel(1) || nilReg.Len() != 0 || nilReg.Snapshot() != nil {
		t.Error("nil registry is not inert")
	}
	var nilAct *Activity
	nilAct.AddProgress(1, 1)
	if nilAct.ID() != 0 {
		t.Error("nil activity has nonzero id")
	}
}

// TestActivityProgressDisabledAllocs: the engine-side progress hooks
// must be free when no activity is registered.
func TestActivityProgressDisabledAllocs(t *testing.T) {
	var a *Activity
	allocs := testing.AllocsPerRun(200, func() {
		a.AddProgress(1, 2)
	})
	if allocs != 0 {
		t.Errorf("disabled activity hooks allocate %v per call, want 0", allocs)
	}
}
