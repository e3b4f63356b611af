package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestTraceFlagJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	var out bytes.Buffer
	err := run([]string{"-q", "-trace", path, "-exec", `describe honor(X).`, dataFile(t)},
		strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := string(data)
	for _, want := range []string{`"name":"query"`, `"name":"parse"`, `"name":"analyze"`, `"name":"eval"`, `"name":"describe"`, `"kind":"describe"`} {
		if !strings.Contains(got, want) {
			t.Errorf("trace missing %s:\n%s", want, got)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(got), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", line, err)
		}
	}
}

// TestTraceWriteErrorReported: a trace file that cannot be written is
// reported once on stderr, and the statements still answer.
func TestTraceWriteErrorReported(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full:", err)
	}
	stderr, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	saved := os.Stderr
	os.Stderr = stderr
	defer func() { os.Stderr = saved }()

	var out bytes.Buffer
	err = run([]string{"-q", "-trace", "/dev/full", "-exec", `retrieve honor(X). describe honor(X).`, dataFile(t)},
		strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "honor(ann)") {
		t.Errorf("statements did not answer:\n%s", out.String())
	}
	got, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(got), "kdb: trace:"); n != 1 || !strings.Contains(string(got), "no space left on device") {
		t.Errorf("stderr reports the trace failure %d times, want once:\n%s", n, got)
	}
}

// TestQueryLogReopensOnSIGHUP is the logrotate handshake through the
// shell: the live query log is renamed, records keep landing in it until
// the process gets SIGHUP, and the next record lands in a fresh file at
// the configured path. No record is lost or written twice.
func TestQueryLogReopensOnSIGHUP(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.jsonl")
	data := dataFile(t)
	in, feed := io.Pipe()
	defer feed.Close()
	errc := make(chan error, 1)
	go func() { errc <- run([]string{"-q", "-query-log", path, data}, in, io.Discard) }()

	send := func(line string) {
		t.Helper()
		if _, err := io.WriteString(feed, line+"\n"); err != nil {
			t.Fatal(err)
		}
	}
	stmts := func(file string) []string {
		raw, _ := os.ReadFile(file)
		var got []string
		for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
			var rec struct{ Stmt string }
			if json.Unmarshal([]byte(line), &rec) == nil {
				got = append(got, rec.Stmt)
			}
		}
		return got
	}
	waitFor := func(what string, ok func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !ok(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	send("retrieve honor(X).")
	waitFor("the first record", func() bool { return len(stmts(path)) == 1 })
	if err := os.Rename(path, path+".1"); err != nil {
		t.Fatal(err)
	}
	send("describe honor(X).")
	waitFor("a record in the renamed file", func() bool { return len(stmts(path+".1")) == 2 })
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	waitFor("a fresh file at the configured path", func() bool {
		_, err := os.Stat(path)
		return err == nil
	})
	send("retrieve prior(databases, Y).")
	send(".quit")
	if err := <-errc; err != nil {
		t.Fatal(err)
	}

	if got, want := stmts(path+".1"), []string{"retrieve honor(X).", "describe honor(X)."}; !slices.Equal(got, want) {
		t.Errorf("renamed file holds %q, want %q", got, want)
	}
	if got, want := stmts(path), []string{"retrieve prior(databases, Y)."}; !slices.Equal(got, want) {
		t.Errorf("fresh file holds %q, want %q", got, want)
	}
}

func TestStatsJSONFlag(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-q", "-stats-json", "-exec", `retrieve honor(X).`, dataFile(t)},
		strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	i := strings.Index(got, "{")
	if i < 0 {
		t.Fatalf("no JSON stats in output:\n%s", got)
	}
	var st struct {
		Engine     string `json:"Engine"`
		Facts      int    `json:"Facts"`
		Components []struct {
			Preds []string
		}
	}
	if err := json.Unmarshal([]byte(got[i:]), &st); err != nil {
		t.Fatalf("stats output is not valid JSON: %v\n%s", err, got[i:])
	}
	if st.Engine == "" {
		t.Errorf("stats JSON missing Engine: %s", got[i:])
	}
	if len(st.Components) == 0 {
		t.Errorf("stats JSON missing Components: %s", got[i:])
	}
}

func TestReplTraceMeta(t *testing.T) {
	session := `
.trace on
retrieve honor(X).
.trace off
describe honor(X).
.quit
`
	var out bytes.Buffer
	if err := run([]string{"-q", dataFile(t)}, strings.NewReader(session), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "trace: on") || !strings.Contains(got, "trace: off") {
		t.Errorf("missing trace toggles:\n%s", got)
	}
	// The retrieve between on/off must print a span tree; the describe
	// after off must not.
	onPart, offPart, found := strings.Cut(got, "trace: off")
	if !found {
		t.Fatalf("no trace: off marker:\n%s", got)
	}
	for _, want := range []string{"query", "parse", "analyze", "eval"} {
		if !strings.Contains(onPart, want) {
			t.Errorf("span tree missing %q while tracing:\n%s", want, onPart)
		}
	}
	if strings.Contains(offPart, "analyze") {
		t.Errorf("span tree printed after .trace off:\n%s", offPart)
	}
}

func TestReplUnknownMetaListsCommands(t *testing.T) {
	session := ".bogus\n.quit\n"
	var out bytes.Buffer
	if err := run([]string{"-q"}, strings.NewReader(session), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "unknown command .bogus") {
		t.Errorf("missing unknown-command report:\n%s", got)
	}
	for _, want := range []string{".help", ".trace", ".stats", ".quit"} {
		if !strings.Contains(got, want) {
			t.Errorf("known-command list missing %s:\n%s", want, got)
		}
	}
}

func TestReplMetaMidBuffer(t *testing.T) {
	// A meta command issued while a multi-line statement is buffered must
	// run immediately, and the buffered statement must still complete.
	session := "retrieve honor(X)\n.stats on\nwhere enroll(X, databases).\n.quit\n"
	var out bytes.Buffer
	if err := run([]string{"-q", dataFile(t)}, strings.NewReader(session), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "stats: on") {
		t.Errorf("mid-buffer meta did not run:\n%s", got)
	}
	if !strings.Contains(got, "honor(ann)") {
		t.Errorf("buffered statement lost:\n%s", got)
	}
}
