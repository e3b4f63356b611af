package analysis

import (
	"fmt"
	"strings"
)

// Profile summarizes the shape of a program: predicate and clause
// counts, plus rule counts per recursion classification (§2.1). The
// classification decides which describe algorithm each predicate gets,
// so the profile tells at a glance how much of a program Algorithm 2
// covers exactly versus how much falls back to the bounded §5.3 mode.
type Profile struct {
	// EDBPreds counts the extensional (stored or declared) predicates.
	EDBPreds int `json:"edb_preds"`
	// IDBPreds counts the predicates defined by rules.
	IDBPreds int `json:"idb_preds"`
	// Rules counts the IDB rules.
	Rules int `json:"rules"`
	// Constraints counts the integrity constraints.
	Constraints int `json:"constraints"`
	// RecursiveComponents counts the SCCs that contain a recursive rule.
	RecursiveComponents int `json:"recursive_components"`
	// Nonrecursive counts the rules that are not recursive.
	Nonrecursive int `json:"nonrecursive_rules"`
	// Nonlinear counts recursive rules with two or more recursive body
	// occurrences.
	Nonlinear int `json:"nonlinear_rules"`
	// Linear counts recursive rules that are linear but not strongly
	// linear (recursion through a mutually dependent predicate).
	Linear int `json:"linear_rules"`
	// StronglyLinear counts recursive rules that are strongly linear but
	// not typed with respect to their head.
	StronglyLinear int `json:"strongly_linear_rules"`
	// Typed counts recursive rules that are strongly linear and typed —
	// the rules Algorithm 2 (§5.2) handles exactly.
	Typed int `json:"typed_rules"`
}

// ProfileOf computes the profile of a program.
func ProfileOf(prog *Program) Profile {
	g := prog.Graph
	p := Profile{
		EDBPreds:    len(prog.EDB),
		Rules:       len(prog.Rules),
		Constraints: len(prog.Constraints),
	}
	idb := make(map[string]bool)
	for _, r := range prog.Rules {
		idb[r.Head.Pred] = true
		if !g.IsRecursiveRule(r) {
			p.Nonrecursive++
			continue
		}
		switch classifyOne(g, r) {
		case ClassNonlinear:
			p.Nonlinear++
		case ClassLinear:
			p.Linear++
		case ClassStronglyLinear:
			p.StronglyLinear++
		case ClassTyped:
			p.Typed++
		}
	}
	p.IDBPreds = len(idb)
	for _, comp := range g.SCCOrder() {
		recursive := false
		for _, pred := range comp {
			for _, r := range g.RulesFor(pred) {
				if g.IsRecursiveRule(r) {
					recursive = true
				}
			}
		}
		if recursive {
			p.RecursiveComponents++
		}
	}
	return p
}

// String renders the profile as a compact one-line summary.
func (p Profile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d EDB + %d IDB predicates, %d rules, %d constraints", p.EDBPreds, p.IDBPreds, p.Rules, p.Constraints)
	rec := p.Rules - p.Nonrecursive
	if rec == 0 {
		b.WriteString("; nonrecursive")
		return b.String()
	}
	fmt.Fprintf(&b, "; %d recursive rules in %d component(s) (", rec, p.RecursiveComponents)
	var parts []string
	if p.Typed > 0 {
		parts = append(parts, fmt.Sprintf("%d typed strongly-linear", p.Typed))
	}
	if p.StronglyLinear > 0 {
		parts = append(parts, fmt.Sprintf("%d strongly-linear untyped", p.StronglyLinear))
	}
	if p.Linear > 0 {
		parts = append(parts, fmt.Sprintf("%d linear", p.Linear))
	}
	if p.Nonlinear > 0 {
		parts = append(parts, fmt.Sprintf("%d nonlinear", p.Nonlinear))
	}
	b.WriteString(strings.Join(parts, ", "))
	b.WriteString(")")
	return b.String()
}
