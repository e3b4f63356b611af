package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func dataFile(t *testing.T) string {
	t.Helper()
	p := filepath.Join("..", "..", "testdata", "university.kdb")
	if _, err := os.Stat(p); err != nil {
		t.Fatalf("missing test data: %v", err)
	}
	return p
}

func TestExecFlag(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-q", "-exec", `retrieve honor(X) where enroll(X, databases).`, dataFile(t)}, strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "honor(ann)") || !strings.Contains(got, "honor(dan)") {
		t.Errorf("output = %q", got)
	}
}

func TestExecMultipleQueries(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-q", "-exec", `describe honor(X). retrieve prior(databases, Y).`, dataFile(t)}, strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "honor(X) <- student(X, Y, Z) and Z > 3.7") {
		t.Errorf("describe missing: %q", got)
	}
	if !strings.Contains(got, "prior(databases, datastructures)") {
		t.Errorf("retrieve missing: %q", got)
	}
}

func TestReplSession(t *testing.T) {
	session := `
student(zoe, cs, 3.95).
honor(X) :- student(X, M, G), G > 3.7.
retrieve honor(X).
describe honor(X).
.rules
.preds
.validate
.help
.unknowncmd
.quit
`
	var out bytes.Buffer
	if err := run([]string{"-q"}, strings.NewReader(session), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"ok",         // fact + rule loads
		"honor(zoe)", // retrieve
		"honor(X) <- student(X, M, G) and G > 3.7", // describe
		"honor(X) :- student(X, M, G), G > 3.7.",   // .rules
		"EDB: student/3",                           // .preds
		"ok: rules are disciplined",                // .validate
		"meta commands:",                           // .help
		"unknown command",                          // bad meta
	} {
		if !strings.Contains(got, want) {
			t.Errorf("session output missing %q:\n%s", want, got)
		}
	}
}

func TestReplMultiLineStatement(t *testing.T) {
	session := "retrieve honor(X)\nwhere enroll(X, databases).\n.quit\n"
	var out bytes.Buffer
	if err := run([]string{"-q", dataFile(t)}, strings.NewReader(session), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "honor(ann)") {
		t.Errorf("output = %q", out.String())
	}
}

func TestReplErrorRecovery(t *testing.T) {
	session := `
retrieve honor(.
retrieve honor(zzz).
.quit
`
	var out bytes.Buffer
	if err := run([]string{"-q", dataFile(t)}, strings.NewReader(session), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "error:") {
		t.Errorf("parse error must be reported: %q", got)
	}
	if !strings.Contains(got, "no answers") {
		t.Errorf("shell must keep working after an error: %q", got)
	}
}

func TestReplLoadCommand(t *testing.T) {
	session := ".load " + dataFile(t) + "\nretrieve honor(ann).\n.quit\n"
	var out bytes.Buffer
	if err := run([]string{"-q"}, strings.NewReader(session), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "honor(ann)") {
		t.Errorf("output = %q", out.String())
	}
}

func TestDurableFlag(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	session := "flight(la, sf).\n.checkpoint\n.quit\n"
	if err := run([]string{"-q", "-db", dir}, strings.NewReader(session), &out); err != nil {
		t.Fatal(err)
	}
	// Reopen and query.
	out.Reset()
	if err := run([]string{"-q", "-db", dir, "-exec", `retrieve flight(X, Y).`}, strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "flight(la, sf)") {
		t.Errorf("durable facts lost: %q", out.String())
	}
}

func TestLoadMissingFile(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-q", "no-such-file.kdb"}, strings.NewReader(""), &out); err == nil {
		t.Error("missing file must fail")
	}
}
