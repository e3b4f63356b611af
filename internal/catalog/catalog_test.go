package catalog

import (
	"strings"
	"testing"
)

func TestNewHasBuiltins(t *testing.T) {
	c := New()
	for _, op := range []string{"=", "!=", "<", "<=", ">", ">="} {
		if cl, ok := c.Class(op); !ok || cl != ClassBuiltin {
			t.Errorf("Class(%q) = %v, %v, want builtin", op, cl, ok)
		}
		p := c.Lookup(op)
		if p == nil || p.Arity != 2 {
			t.Errorf("Lookup(%q) = %+v", op, p)
		}
	}
}

func TestDeclareAndLookup(t *testing.T) {
	c := New()
	p, err := c.Declare("student", 3, ClassEDB)
	if err != nil {
		t.Fatal(err)
	}
	if p.Functor() != "student/3" {
		t.Errorf("Functor = %q", p.Functor())
	}
	if !c.IsEDB("student") || c.IsIDB("student") {
		t.Error("class predicates misreport")
	}
	// Identical re-declaration is a no-op.
	if _, err := c.Declare("student", 3, ClassEDB); err != nil {
		t.Errorf("idempotent declare failed: %v", err)
	}
	// Arity conflict.
	if _, err := c.Declare("student", 2, ClassEDB); err == nil {
		t.Error("arity conflict must fail")
	}
	// Class conflict (P and S are disjoint).
	if _, err := c.Declare("student", 3, ClassIDB); err == nil {
		t.Error("class conflict must fail")
	}
	// Builtins cannot be redefined.
	if _, err := c.Declare("=", 2, ClassIDB); err == nil {
		t.Error("redefining a builtin must fail")
	}
}

func TestClassUnknown(t *testing.T) {
	c := New()
	cls, known := c.Class("nope")
	if known || cls != ClassEDB {
		t.Errorf("Class(nope) = %v, %v", cls, known)
	}
	if _, known := c.Class("="); !known {
		t.Error("builtins must be known")
	}
}

func TestPromote(t *testing.T) {
	c := New()
	if _, err := c.Declare("honor", 1, ClassEDB); err != nil {
		t.Fatal(err)
	}
	if err := c.Promote("honor"); err != nil {
		t.Fatal(err)
	}
	if !c.IsIDB("honor") {
		t.Error("promotion must make the predicate IDB")
	}
	if err := c.Promote("absent"); err == nil {
		t.Error("promoting unknown predicate must fail")
	}
	if err := c.Promote("="); err == nil {
		t.Error("promoting a builtin must fail")
	}
}

func TestAddKey(t *testing.T) {
	c := New()
	if err := c.AddKey("student", 3, []int{1}); err != nil {
		t.Fatal(err)
	}
	p := c.Lookup("student")
	if p == nil || len(p.Keys) != 1 || p.Keys[0][0] != 1 {
		t.Fatalf("key not recorded: %+v", p)
	}
	// Idempotent. Lookup returns copies, so re-read after each AddKey.
	if err := c.AddKey("student", 3, []int{1}); err != nil || len(c.Lookup("student").Keys) != 1 {
		t.Errorf("repeated AddKey: err=%v keys=%v", err, c.Lookup("student").Keys)
	}
	// Second distinct key.
	if err := c.AddKey("student", 3, []int{2, 3}); err != nil || len(c.Lookup("student").Keys) != 2 {
		t.Errorf("second key: err=%v keys=%v", err, c.Lookup("student").Keys)
	}
	// Keys are stored sorted.
	if err := c.AddKey("complete", 4, []int{3, 1, 2}); err != nil {
		t.Fatal(err)
	}
	k := c.Lookup("complete").Keys[0]
	if k[0] != 1 || k[1] != 2 || k[2] != 3 {
		t.Errorf("key not sorted: %v", k)
	}
	// Errors.
	if err := c.AddKey("student", 4, []int{1}); err == nil {
		t.Error("arity conflict must fail")
	}
	if err := c.AddKey("student", 3, []int{5}); err == nil {
		t.Error("out-of-range column must fail")
	}
	if err := c.AddKey("student", 3, []int{2, 2}); err == nil {
		t.Error("repeated column must fail")
	}
}

func TestDisplayName(t *testing.T) {
	c := New()
	if got := c.DisplayName("prior"); got != "prior" {
		t.Errorf("default display = %q", got)
	}
	c.SetDisplay("prior_step", "chain")
	if got := c.DisplayName("prior_step"); got != "chain" {
		t.Errorf("display = %q", got)
	}
	// SetDisplay on a declared predicate.
	if _, err := c.Declare("prior", 2, ClassIDB); err != nil {
		t.Fatal(err)
	}
	c.SetDisplay("prior", "before")
	if got := c.DisplayName("prior"); got != "before" {
		t.Errorf("display = %q", got)
	}
}

func TestPredsAndString(t *testing.T) {
	c := New()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if _, err := c.Declare(n, 1, ClassEDB); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Declare("derived", 2, ClassIDB); err != nil {
		t.Fatal(err)
	}
	edb := c.Preds(ClassEDB)
	if len(edb) != 3 || edb[0].Name != "alpha" || edb[2].Name != "zeta" {
		t.Errorf("Preds(EDB) = %v", edb)
	}
	s := c.String()
	if !strings.Contains(s, "EDB: alpha/1 mid/1 zeta/1") || !strings.Contains(s, "IDB: derived/2") {
		t.Errorf("String = %q", s)
	}
}

func TestClassString(t *testing.T) {
	if ClassEDB.String() != "EDB" || ClassIDB.String() != "IDB" || ClassBuiltin.String() != "builtin" {
		t.Error("Class.String misbehaves")
	}
}

func TestFunctorWithoutArity(t *testing.T) {
	c := New()
	c.SetDisplay("ghost_step", "spirit")
	if got := c.Lookup("ghost_step").Functor(); got != "ghost_step" {
		t.Errorf("Functor = %q, want bare name for arity-less predicate", got)
	}
}
