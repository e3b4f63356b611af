package kb

import (
	"context"
	"testing"
)

// loadUniversity loads the shipped university program.
func loadUniversity(t *testing.T) *KB {
	t.Helper()
	k := New()
	if err := k.LoadFile("../../testdata/university.kdb"); err != nil {
		t.Fatal(err)
	}
	return k
}

// TestValidateBuildsNoGraph: Validate reads the discipline off the
// generation's dependency graph instead of analysing the rules again.
func TestValidateBuildsNoGraph(t *testing.T) {
	k := loadUniversity(t)
	if v := k.Validate(); len(v) != 0 {
		t.Fatalf("university violates the discipline: %v", v)
	}
	if n := testing.AllocsPerRun(50, func() { k.Validate() }); n != 0 {
		t.Errorf("Validate allocates %v times, want 0", n)
	}
}

// TestSysRuleBuildsNoGraph: sys_rule's SCC column comes from the
// generation's dependency graph, not from a graph built per statement.
func TestSysRuleBuildsNoGraph(t *testing.T) {
	k := loadUniversity(t)
	const q = "retrieve sys_rule(I, H, B, S)."
	ctx := context.Background()
	if _, err := k.ExecStringContext(ctx, q); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(50, func() {
		if _, err := k.ExecStringContext(ctx, q); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("retrieve sys_rule allocates %v times", n)
	if n > 94 {
		t.Errorf("retrieve sys_rule allocates %v times, want ≤ 94", n)
	}
}
