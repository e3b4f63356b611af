package analysis

import (
	"fmt"
	"sort"
	"strings"

	"kdb/internal/builtin"
	"kdb/internal/depgraph"
	"kdb/internal/obs/sysrel"
	"kdb/internal/term"
	"kdb/internal/transform"
)

// safetyAnalyzer checks range restriction (the well-formedness Algorithm
// 1 silently assumes): every head variable and every variable of a
// non-equality comparison must be bound by a positive ordinary body
// atom, with equality atoms propagating bindings.
var safetyAnalyzer = &Analyzer{
	Name: "safety",
	Doc:  "head or comparison variables unbound by any positive body atom",
	Run: func(pass *Pass) []Diagnostic {
		var out []Diagnostic
		for _, r := range pass.Program.Rules {
			if v, inHead, ok := term.Unbound(r.Head, r.Body); ok {
				where := "comparison"
				if inHead {
					where = "head"
				}
				out = append(out, Diagnostic{
					Analyzer: "safety",
					Severity: SevError,
					Pos:      r.Pos,
					Subject:  r.Head.Pred,
					Message:  fmt.Sprintf("unsafe rule: %s variable %v is not bound by any positive body atom", where, v),
					Rules:    []string{r.String()},
				})
			}
		}
		return out
	},
}

// arityAnalyzer reports predicates used with conflicting arities across
// rule heads, rule bodies, constraints, and the EDB schema.
var arityAnalyzer = &Analyzer{
	Name: "arity",
	Doc:  "same predicate used with conflicting arities",
	Run: func(pass *Pass) []Diagnostic {
		type use struct {
			arity int
			pos   term.Pos
			rule  string
		}
		uses := make(map[string][]use)
		record := func(a term.Atom, pos term.Pos, rule string) {
			if term.IsComparisonPred(a.Pred) {
				return
			}
			uses[a.Pred] = append(uses[a.Pred], use{a.Arity(), pos, rule})
		}
		for pred, arity := range pass.Program.EDB {
			uses[pred] = append(uses[pred], use{arity, term.Pos{}, ""})
		}
		for _, f := range pass.Program.Facts {
			record(f.Head, f.Pos, f.String())
		}
		for _, r := range pass.Program.Rules {
			record(r.Head, r.Pos, r.String())
			for _, a := range r.Body {
				record(a, r.Pos, r.String())
			}
		}
		for i, ic := range pass.Program.Constraints {
			var pos term.Pos
			if i < len(pass.Program.ConstraintPos) {
				pos = pass.Program.ConstraintPos[i]
			}
			for _, a := range ic {
				record(a, pos, ":- "+ic.String()+".")
			}
		}
		preds := make([]string, 0, len(uses))
		for p := range uses {
			preds = append(preds, p)
		}
		sort.Strings(preds)
		var out []Diagnostic
		for _, p := range preds {
			us := uses[p]
			arities := map[int]bool{}
			for _, u := range us {
				arities[u.arity] = true
			}
			if len(arities) < 2 {
				continue
			}
			list := make([]int, 0, len(arities))
			for a := range arities {
				list = append(list, a)
			}
			sort.Ints(list)
			parts := make([]string, len(list))
			for i, a := range list {
				parts[i] = fmt.Sprint(a)
			}
			d := Diagnostic{
				Analyzer: "arity",
				Severity: SevError,
				Subject:  p,
				Message:  fmt.Sprintf("predicate %s is used with conflicting arities %s", p, strings.Join(parts, " and ")),
			}
			seen := map[string]bool{}
			for _, u := range us {
				if !d.Pos.IsValid() && u.pos.IsValid() {
					d.Pos = u.pos
				}
				if u.rule != "" && !seen[u.rule] {
					seen[u.rule] = true
					d.Rules = append(d.Rules, u.rule)
				}
			}
			out = append(out, d)
		}
		return out
	},
}

// undefinedAnalyzer reports body and constraint atoms whose predicate
// has no EDB relation and no defining rule: such conjuncts denote the
// empty relation, so the enclosing rule can never fire.
var undefinedAnalyzer = &Analyzer{
	Name: "undefined",
	Doc:  "body atoms with no EDB relation and no defining rule",
	Run: func(pass *Pass) []Diagnostic {
		var out []Diagnostic
		seen := make(map[string]bool)
		report := func(a term.Atom, pos term.Pos, where, rule string) {
			if term.IsComparisonPred(a.Pred) || pass.Defined[a.Pred] || seen[a.Pred] {
				return
			}
			seen[a.Pred] = true
			out = append(out, Diagnostic{
				Analyzer: "undefined",
				Severity: SevWarning,
				Pos:      pos,
				Subject:  a.Pred,
				Message:  fmt.Sprintf("predicate %s/%d has no stored relation and no defining rule; the %s can never be satisfied", a.Pred, a.Arity(), where),
				Rules:    []string{rule},
			})
		}
		for _, r := range pass.Program.Rules {
			for _, a := range r.Body {
				report(a, r.Pos, "rule body", r.String())
			}
		}
		for i, ic := range pass.Program.Constraints {
			var pos term.Pos
			if i < len(pass.Program.ConstraintPos) {
				pos = pass.Program.ConstraintPos[i]
			}
			for _, a := range ic {
				report(a, pos, "constraint", ":- "+ic.String()+".")
			}
		}
		return out
	},
}

// unusedAnalyzer reports the two ways a predicate can be dead weight:
// a stored relation referenced by no rule and no constraint feeds no
// knowledge (informational — it remains directly queryable), and an IDB
// predicate with no grounded derivation path from the EDB — every rule
// for it depends, transitively, on its own cycle — can never derive a
// fact, so the concept is necessarily empty (a warning). Predicates the
// undefined analyzer already flags are treated optimistically here, so
// one missing relation does not cascade into a second finding per rule.
var unusedAnalyzer = &Analyzer{
	Name: "unused",
	Doc:  "unreferenced stored relations; predicates that can never derive facts",
	Run: func(pass *Pass) []Diagnostic {
		referenced := make(map[string]bool)
		for _, r := range pass.Program.Rules {
			for _, a := range r.Body {
				if !term.IsComparison(a) {
					referenced[a.Pred] = true
				}
			}
		}
		for _, ic := range pass.Program.Constraints {
			for _, a := range ic {
				if !term.IsComparison(a) {
					referenced[a.Pred] = true
				}
			}
		}
		rulesFor := make(map[string][]term.Rule)
		var headOrder []string
		for _, r := range pass.Program.Rules {
			if _, ok := rulesFor[r.Head.Pred]; !ok {
				headOrder = append(headOrder, r.Head.Pred)
			}
			rulesFor[r.Head.Pred] = append(rulesFor[r.Head.Pred], r)
		}
		// Groundedness fixpoint: EDB relations (and, optimistically,
		// undefined predicates) are grounded; a rule head is grounded once
		// every ordinary body atom is. It reads the graph's rules, which
		// include the stored facts of a predicate a knowledge-base load
		// promotes.
		grounded := make(map[string]bool)
		for p := range pass.Program.EDB {
			grounded[p] = true
		}
		for _, d := range sysrel.Defs() {
			grounded[d.Name] = true // virtual relations are served, hence grounded
		}
		for changed := true; changed; {
			changed = false
			for _, r := range pass.Program.Graph.Rules() {
				if grounded[r.Head.Pred] {
					continue
				}
				ok := true
				for _, a := range r.Body {
					if term.IsComparison(a) || !pass.Defined[a.Pred] {
						continue
					}
					if !grounded[a.Pred] {
						ok = false
						break
					}
				}
				if ok {
					grounded[r.Head.Pred] = true
					changed = true
				}
			}
		}
		var out []Diagnostic
		for _, p := range headOrder {
			if grounded[p] {
				continue
			}
			rs := rulesFor[p]
			d := Diagnostic{
				Analyzer: "unused",
				Severity: SevWarning,
				Pos:      rs[0].Pos,
				Subject:  p,
				Message:  fmt.Sprintf("predicate %s can never derive facts: no rule for it is grounded in stored relations", p),
			}
			for _, r := range rs {
				d.Rules = append(d.Rules, r.String())
			}
			out = append(out, d)
		}
		edbPreds := make([]string, 0, len(pass.Program.EDB))
		for p := range pass.Program.EDB {
			edbPreds = append(edbPreds, p)
		}
		sort.Strings(edbPreds)
		for _, p := range edbPreds {
			if referenced[p] || len(rulesFor[p]) > 0 {
				continue
			}
			out = append(out, Diagnostic{
				Analyzer: "unused",
				Severity: SevInfo,
				Subject:  p,
				Message:  fmt.Sprintf("stored relation %s/%d is not referenced by any rule or constraint", p, pass.Program.EDB[p]),
			})
		}
		return out
	},
}

// recursionAnalyzer classifies every recursive component and checks the
// paper's §2.1 discipline (all recursive rules strongly linear and typed
// with respect to their head) through depgraph.CheckDiscipline and
// transform.Of over the program's graph: the classification decides
// whether describe can run the exact Algorithm 2 (via the §5.2
// transformation) or must fall back to the bounded §5.3 mode, and
// whether the transformation itself is degenerate.
var recursionAnalyzer = &Analyzer{
	Name: "recursion",
	Doc:  "per-component recursion classification and §2.1 discipline",
	Run: func(pass *Pass) []Diagnostic {
		g := pass.Program.Graph
		var out []Diagnostic
		// Per-rule discipline violations, with positions.
		for _, v := range g.CheckDiscipline() {
			out = append(out, Diagnostic{
				Analyzer: "recursion",
				Severity: SevWarning,
				Pos:      v.Rule.Pos,
				Subject:  v.Rule.Head.Pred,
				Message:  v.Reason + " (describe uses the bounded §5.3 mode)",
				Rules:    []string{v.Rule.String()},
			})
		}
		// Degenerate disciplined recursion: the §5.2 transformation
		// cannot apply, so describe on the predicate fails outright.
		trans, _ := transform.Of(g)
		probe := trans.Degenerate
		probePreds := make([]string, 0, len(probe))
		for p := range probe {
			probePreds = append(probePreds, p)
		}
		sort.Strings(probePreds)
		for _, p := range probePreds {
			d := Diagnostic{
				Analyzer: "recursion",
				Severity: SevWarning,
				Subject:  p,
				Message:  fmt.Sprintf("degenerate recursion: %v; describe queries on %s cannot apply the §5.2 transformation", probe[p], p),
			}
			for _, r := range g.RulesFor(p) {
				if g.IsRecursiveRule(r) {
					if !d.Pos.IsValid() {
						d.Pos = r.Pos
					}
					d.Rules = append(d.Rules, r.String())
				}
			}
			out = append(out, d)
		}
		// Per-component classification report.
		for _, comp := range g.SCCOrder() {
			var recRules []term.Rule
			for _, p := range comp {
				for _, r := range g.RulesFor(p) {
					if g.IsRecursiveRule(r) {
						recRules = append(recRules, r)
					}
				}
			}
			if len(recRules) == 0 {
				continue
			}
			class := classifyRules(g, recRules)
			desc := class.describe()
			if class == ClassTyped {
				for _, p := range comp {
					if _, bad := probe[p]; bad {
						desc = "strongly linear and typed, but the §5.2 transformation is degenerate; describe cannot answer for this component"
						break
					}
				}
			}
			msg := fmt.Sprintf("recursive component [%s]: %s", strings.Join(comp, ", "), desc)
			d := Diagnostic{
				Analyzer: "recursion",
				Severity: SevInfo,
				Pos:      recRules[0].Pos,
				Subject:  comp[0],
				Message:  msg,
			}
			for _, r := range recRules {
				d.Rules = append(d.Rules, r.String())
			}
			out = append(out, d)
		}
		return out
	},
}

// RecursionClass classifies the recursive rules of one component, from
// the paper's §2.1 taxonomy. Higher is better behaved.
type RecursionClass uint8

// Recursion classes.
const (
	// ClassNonrecursive: the component has no recursive rule.
	ClassNonrecursive RecursionClass = iota
	// ClassNonlinear: some recursive rule has two or more mutually
	// recursive body occurrences.
	ClassNonlinear
	// ClassLinear: every recursive rule is linear, but some only through
	// mutual dependency (not strongly linear).
	ClassLinear
	// ClassStronglyLinear: every recursive rule is strongly linear, but
	// some are not typed with respect to their head.
	ClassStronglyLinear
	// ClassTyped: every recursive rule is strongly linear AND typed —
	// Algorithm 2 (the §5.2 transformation) applies exactly.
	ClassTyped
)

// String names the class.
func (c RecursionClass) String() string {
	switch c {
	case ClassNonrecursive:
		return "nonrecursive"
	case ClassNonlinear:
		return "nonlinear"
	case ClassLinear:
		return "linear"
	case ClassStronglyLinear:
		return "strongly-linear"
	case ClassTyped:
		return "strongly-linear typed"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// describe renders the class with its describe-engine consequence.
func (c RecursionClass) describe() string {
	switch c {
	case ClassTyped:
		return "strongly linear and typed; eligible for the exact Algorithm 2 (§5.2 transformation)"
	case ClassStronglyLinear:
		return "strongly linear but not typed; describe uses the bounded §5.3 mode"
	case ClassLinear:
		return "linear but not strongly linear; rewritable by unfolding (footnote 2), otherwise bounded §5.3 mode"
	case ClassNonlinear:
		return "nonlinear; describe uses the bounded §5.3 mode"
	default:
		return c.String()
	}
}

// classifyOne grades a single recursive rule.
func classifyOne(g *depgraph.Graph, r term.Rule) RecursionClass {
	switch {
	case !g.IsRecursiveRule(r):
		return ClassNonrecursive
	case !g.IsLinear(r):
		return ClassNonlinear
	case !g.IsStronglyLinear(r):
		return ClassLinear
	case !depgraph.TypedWRT(r, r.Head.Pred):
		return ClassStronglyLinear
	default:
		return ClassTyped
	}
}

// classifyRules grades a set of recursive rules: the component's class
// is the weakest class among its rules.
func classifyRules(g *depgraph.Graph, recRules []term.Rule) RecursionClass {
	class := ClassTyped
	for _, r := range recRules {
		if c := classifyOne(g, r); c < class {
			class = c
		}
	}
	return class
}

// contradictionAnalyzer reports rules whose built-in comparison atoms
// are jointly unsatisfiable: no substitution can satisfy the body, so
// the rule can never fire.
var contradictionAnalyzer = &Analyzer{
	Name: "contradiction",
	Doc:  "rule bodies whose comparison constraints are unsatisfiable",
	Run: func(pass *Pass) []Diagnostic {
		var out []Diagnostic
		for _, r := range pass.Program.Rules {
			cmp, _ := builtin.Split(r.Body)
			if len(cmp) == 0 {
				continue
			}
			sat, err := builtin.Sat(cmp)
			if err != nil || sat {
				continue
			}
			out = append(out, Diagnostic{
				Analyzer: "contradiction",
				Severity: SevWarning,
				Pos:      r.Pos,
				Subject:  r.Head.Pred,
				Message:  fmt.Sprintf("rule can never fire: its comparison constraints (%s) are contradictory", cmp),
				Rules:    []string{r.String()},
			})
		}
		return out
	},
}

// duplicateAnalyzer reports rules that restate an earlier rule of the
// same predicate up to variable renaming: the later rule adds nothing.
var duplicateAnalyzer = &Analyzer{
	Name: "duplicate",
	Doc:  "rules that duplicate an earlier rule up to variable renaming",
	Run: func(pass *Pass) []Diagnostic {
		byPred := make(map[string][]term.Rule)
		var order []string
		for _, r := range pass.Program.Rules {
			if _, ok := byPred[r.Head.Pred]; !ok {
				order = append(order, r.Head.Pred)
			}
			byPred[r.Head.Pred] = append(byPred[r.Head.Pred], r)
		}
		var out []Diagnostic
		for _, p := range order {
			rs := byPred[p]
			for i := 1; i < len(rs); i++ {
				for j := 0; j < i; j++ {
					if transform.IsVariant(rs[i], rs[j]) {
						out = append(out, Diagnostic{
							Analyzer: "duplicate",
							Severity: SevWarning,
							Pos:      rs[i].Pos,
							Subject:  p,
							Message:  fmt.Sprintf("rule duplicates an earlier rule for %s (up to variable renaming)", p),
							Rules:    []string{rs[i].String(), rs[j].String()},
						})
						break
					}
				}
			}
		}
		return out
	},
}
