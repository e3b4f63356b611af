package kb

import (
	"testing"

	"kdb/internal/term"
)

func TestLastStatsAfterRetrieve(t *testing.T) {
	k := loadKB(t, universityKB)
	if k.LastStats() != nil {
		t.Fatal("stats must be nil before any retrieve")
	}
	res, err := k.Retrieve(term.NewAtom("prior", term.Var("X"), term.Var("Y")), nil)
	if err != nil {
		t.Fatal(err)
	}
	st := k.LastStats()
	if st == nil {
		t.Fatal("no stats after retrieve")
	}
	if st.Engine != "seminaive" {
		t.Errorf("engine=%q", st.Engine)
	}
	if st.Facts == 0 || st.Probes == 0 {
		t.Errorf("counters empty: %+v", st)
	}
	// The prior SCC is recursive: its iteration trail must be recorded.
	found := false
	for _, c := range st.Components {
		if c.Skipped {
			continue
		}
		for _, p := range c.Preds {
			if p == "prior" {
				found = true
				if !c.Recursive || c.Iterations < 2 {
					t.Errorf("prior component: %+v", c)
				}
			}
		}
	}
	if !found {
		t.Errorf("prior component missing from stats: %+v", st.Components)
	}
	// Pointer freshness: a new retrieve stores a new record.
	if _, err := k.Retrieve(term.NewAtom("honor", term.Var("X")), nil); err != nil {
		t.Fatal(err)
	}
	if k.LastStats() == st {
		t.Error("LastStats must change after another retrieve")
	}
	_ = res
}

func TestLastStatsPerEngine(t *testing.T) {
	for _, ek := range []EngineKind{EngineNaive, EngineSemiNaive, EngineTopDown, EngineMagic} {
		k := loadKB(t, universityKB)
		if err := k.SetEngine(ek); err != nil {
			t.Fatal(err)
		}
		if _, err := k.Retrieve(term.NewAtom("can_ta", term.Var("X"), term.Sym("databases")), nil); err != nil {
			t.Fatalf("%s: %v", ek, err)
		}
		st := k.LastStats()
		if st == nil {
			t.Fatalf("%s: no stats", ek)
		}
		if st.Engine != string(ek) {
			t.Errorf("stats engine = %q, want %q", st.Engine, ek)
		}
	}
}

func TestCheckConstraintsRecordsStats(t *testing.T) {
	k := loadKB(t, universityKB+"\n:- honor(X), student(X, cs, G).\n")
	if _, err := k.CheckConstraints(); err != nil {
		t.Fatal(err)
	}
	if k.LastStats() == nil {
		t.Error("constraint checking must record stats")
	}
}
