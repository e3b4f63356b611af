package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"kdb"
)

// The golden files pin the explain statement's text and JSON renderings
// and the structured query log's record shape; CI runs these as part of
// the ordinary test job. Regenerate with:
//
//	go test ./cmd/kdb -run TestGolden -update
var update = flag.Bool("update", false, "rewrite the golden files")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted:\n got:\n%s\nwant:\n%s", name, got, want)
	}
}

func TestGoldenExplainText(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-q", "-exec", `explain can_ta(ann, databases).`, dataFile(t)},
		strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "explain_can_ta.golden", out.Bytes())
}

func TestGoldenExplainJSON(t *testing.T) {
	k := kdb.New()
	if err := k.LoadFile(dataFile(t)); err != nil {
		t.Fatal(err)
	}
	res, err := k.ExecStringContext(context.Background(), `explain can_ta(ann, databases).`)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := res.Explanation.WriteJSON(&out); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "explain_can_ta.json.golden", out.Bytes())
}

var (
	timeRE = regexp.MustCompile(`"time":"[^"]*"`)
	durRE  = regexp.MustCompile(`"dur_us":\d+`)
)

func TestGoldenQueryLogRecord(t *testing.T) {
	dir := t.TempDir()
	logFile := filepath.Join(dir, "slow.jsonl")
	var out bytes.Buffer
	// -slow-query 0: every query is "slow enough"; the log gets exactly
	// one record for the one statement.
	err := run([]string{"-q", "-query-log", logFile, "-slow-query", "0s",
		"-exec", `explain prior(databases, programming).`, dataFile(t)},
		strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(logFile)
	if err != nil {
		t.Fatal(err)
	}
	// Normalize the two nondeterministic fields before comparing.
	norm := timeRE.ReplaceAll(raw, []byte(`"time":"NORMALIZED"`))
	norm = durRE.ReplaceAll(norm, []byte(`"dur_us":0`))
	checkGolden(t, "querylog_slow.golden", norm)
}
