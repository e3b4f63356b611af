package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kdb"
)

func writeProgram(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.kdb")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckCommandClean(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"check", dataFile(t)}, strings.NewReader(""), &out); err != nil {
		t.Fatalf("clean file failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "0 error(s)") || strings.Contains(out.String(), ": error:") {
		t.Errorf("output = %q", out.String())
	}
}

func TestCheckCommandErrors(t *testing.T) {
	path := writeProgram(t, "e(1).\np(X, Y) :- e(X).\n")
	var out bytes.Buffer
	err := run([]string{"check", path}, strings.NewReader(""), &out)
	if err == nil {
		t.Fatalf("unsafe program passed:\n%s", out.String())
	}
	got := out.String()
	if !strings.Contains(got, "unsafe rule") || !strings.Contains(got, path+":2:1") {
		t.Errorf("diagnostic not source-anchored: %q", got)
	}
}

func TestCheckCommandStrict(t *testing.T) {
	path := writeProgram(t, "conn(a, b).\nreach(X, Y) :- conn(X, Y).\nreach(X, Y) :- reach(Y, X).\n")
	var out bytes.Buffer
	if err := run([]string{"check", path}, strings.NewReader(""), &out); err != nil {
		t.Fatalf("warnings alone must pass: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := run([]string{"check", "-strict", path}, strings.NewReader(""), &out); err == nil {
		t.Fatal("-strict must fail on warnings")
	}
}

func TestCheckCommandJSONRoundTrip(t *testing.T) {
	path := writeProgram(t, `
conn(a, b).
orphan(1).
reach(X, Y) :- conn(X, Y).
reach(X, Y) :- reach(Y, X).
dead(X) :- conn(X, Y), X > 3, X < 2.
`)
	var out bytes.Buffer
	if err := run([]string{"check", "-json", path}, strings.NewReader(""), &out); err != nil {
		t.Fatalf("check -json: %v\n%s", err, out.String())
	}
	var results []struct {
		File   string      `json:"file"`
		Report *kdb.Report `json:"report"`
	}
	if err := json.Unmarshal(out.Bytes(), &results); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if len(results) != 1 || results[0].File != path || results[0].Report == nil {
		t.Fatalf("bad results: %+v", results)
	}
	rep := results[0].Report
	if len(rep.Warnings()) == 0 {
		t.Errorf("expected warnings in %+v", rep.Diagnostics)
	}
	// Full round-trip: re-marshal and compare canonical forms.
	again, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back kdb.Report
	if err := json.Unmarshal(again, &back); err != nil {
		t.Fatal(err)
	}
	if back.String() != rep.String() {
		t.Errorf("round-trip changed the report:\n%s\nvs\n%s", rep, &back)
	}
}

// TestCheckCleanFile: a shipped testdata file passes the static suite and
// the data pass, and the report still describes its derived predicates.
func TestCheckCleanFile(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"check", filepath.Join("..", "..", "testdata", "university.kdb")}, strings.NewReader(""), &out); err != nil {
		t.Fatalf("clean file failed: %v\n%s", err, out.String())
	}
	got := out.String()
	if !strings.Contains(got, "0 error(s)") || !strings.Contains(got, "recursive component [prior]") {
		t.Errorf("output = %q", got)
	}
}

func TestCheckUnsafeRule(t *testing.T) {
	path := writeProgram(t, `p(X) :- q(Y).`)
	var out bytes.Buffer
	if err := run([]string{"check", path}, strings.NewReader(""), &out); err == nil {
		t.Fatalf("unsafe rule passed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "unsafe rule") {
		t.Errorf("output = %q", out.String())
	}
}

func TestCheckDisciplineWarning(t *testing.T) {
	path := writeProgram(t, `
sym(X, Y) :- base(X, Y).
sym(X, Y) :- sym(Y, X).
`)
	var out bytes.Buffer
	// Warnings alone pass…
	if err := run([]string{"check", path}, strings.NewReader(""), &out); err != nil {
		t.Fatalf("warnings alone must pass: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "warning:") {
		t.Errorf("output = %q", out.String())
	}
	// …unless -strict.
	out.Reset()
	if err := run([]string{"check", "-strict", path}, strings.NewReader(""), &out); err == nil {
		t.Fatalf("-strict must fail on warnings:\n%s", out.String())
	}
}

func TestCheckParseError(t *testing.T) {
	path := writeProgram(t, `p(a`)
	var out bytes.Buffer
	if err := run([]string{"check", path}, strings.NewReader(""), &out); err == nil {
		t.Fatalf("parse error passed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), path+": error:") {
		t.Errorf("output = %q", out.String())
	}
}

func TestCheckArityConflict(t *testing.T) {
	path := writeProgram(t, "p(a).\np(a, b).\n")
	var out bytes.Buffer
	if err := run([]string{"check", path}, strings.NewReader(""), &out); err == nil {
		t.Fatalf("arity conflict passed:\n%s", out.String())
	}
}

func TestCheckNoArgs(t *testing.T) {
	err := run([]string{"check"}, strings.NewReader(""), &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "usage:") {
		t.Fatalf("err = %v, want a usage error", err)
	}
}

func TestCheckMultipleFiles(t *testing.T) {
	good := writeProgram(t, `p(a).`)
	bad := writeProgram(t, `q(`)
	var out bytes.Buffer
	if err := run([]string{"check", good, bad}, strings.NewReader(""), &out); err == nil {
		t.Fatal("one bad file must fail the run")
	}
	if !strings.Contains(out.String(), "== "+good) {
		t.Errorf("clean file's report missing: %q", out.String())
	}
}

// TestCheckConstraintViolation: a file that passes the static suite but
// whose facts violate one of its constraints fails, naming the
// violation in both renderings.
func TestCheckConstraintViolation(t *testing.T) {
	path := writeProgram(t, `
enroll(ann, databases).
enroll(bob, databases).
suspended(bob).
:- enroll(X, C), suspended(X).
`)
	var out bytes.Buffer
	if err := run([]string{"check", path}, strings.NewReader(""), &out); err == nil {
		t.Fatalf("violating file passed:\n%s", out.String())
	}
	want := path + ": error: constraint :- enroll(X, C) and suspended(X) violated by enroll(bob, databases) and suspended(bob)"
	if !strings.Contains(out.String(), want) {
		t.Errorf("output = %q, want a line %q", out.String(), want)
	}

	out.Reset()
	if err := run([]string{"check", "-json", path}, strings.NewReader(""), &out); err == nil {
		t.Fatal("violating file passed with -json")
	}
	var results []checkedFile
	if err := json.Unmarshal(out.Bytes(), &results); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if len(results) != 1 || len(results[0].Violations) != 1 || !strings.Contains(results[0].Violations[0], "bob") {
		t.Errorf("violations = %+v", results)
	}
}

func TestLintFlagPrintsReport(t *testing.T) {
	path := writeProgram(t, "conn(a, b).\nreach(X, Y) :- conn(X, Y).\nreach(X, Y) :- reach(Y, X).\n")
	var out bytes.Buffer
	if err := run([]string{"-q", "-lint", "-exec", "retrieve conn(X, Y).", path}, strings.NewReader(""), &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "[recursion]") {
		t.Errorf("lint report missing: %q", out.String())
	}
}
