// Package analysis is the static-analysis subsystem for Datalog
// programs: it runs a suite of analyzers over a loaded program — the EDB
// schema plus the IDB rules — and returns structured, source-anchored
// diagnostics. The preconditions the paper's algorithms rely on
// (Algorithm 1 assumes safe, well-formed rules; Algorithm 2 requires
// strongly linear, typed recursion, §2.1/§5) are checked here once, at
// load time, instead of surfacing as ad-hoc errors at query time; the
// same pass yields a program profile (rule counts per recursion
// classification) the engine and the benchmarks can plan against.
//
// The package is deliberately self-contained: analyzers are pure
// functions over an immutable Pass, so the suite is safe to run
// concurrently and can be fuzzed against arbitrary parseable programs.
package analysis

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"kdb/internal/depgraph"
	"kdb/internal/obs/sysrel"
	"kdb/internal/parser"
	"kdb/internal/term"
)

// Severity grades a diagnostic.
type Severity uint8

// Severities, ordered by increasing gravity.
const (
	// SevInfo is a neutral report (e.g. a recursion classification).
	SevInfo Severity = iota
	// SevWarning marks a program that is loadable but suspicious or
	// degraded: rules that can never fire, unreachable predicates,
	// recursion the describe engine must handle in bounded mode.
	SevWarning
	// SevError marks a defect that makes the program unevaluable (unsafe
	// rules, arity conflicts); loads reject programs with errors.
	SevError
)

var severityNames = map[Severity]string{
	SevInfo: "info", SevWarning: "warning", SevError: "error",
}

// String names the severity.
func (s Severity) String() string {
	if n, ok := severityNames[s]; ok {
		return n
	}
	return fmt.Sprintf("severity(%d)", uint8(s))
}

// MarshalJSON renders the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON parses a severity name.
func (s *Severity) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	for sev, n := range severityNames {
		if n == name {
			*s = sev
			return nil
		}
	}
	return fmt.Errorf("analysis: unknown severity %q", name)
}

// Diagnostic is one finding of one analyzer. All fields are plain data,
// so a diagnostic round-trips through encoding/json.
type Diagnostic struct {
	// Analyzer is the name of the analyzer that produced the finding.
	Analyzer string `json:"analyzer"`
	// Severity grades the finding.
	Severity Severity `json:"severity"`
	// Pos points at the offending clause (its head), when known.
	Pos term.Pos `json:"pos,omitzero"`
	// Subject is the predicate the finding concerns, when there is one.
	Subject string `json:"subject,omitempty"`
	// Message is the human-readable finding.
	Message string `json:"message"`
	// Rules renders the related rules (the offending clause first).
	Rules []string `json:"rules,omitempty"`
}

// String renders the diagnostic one per line: "pos: severity: [analyzer]
// message" (the position is omitted when unknown).
func (d Diagnostic) String() string {
	var b strings.Builder
	if d.Pos.IsValid() {
		b.WriteString(d.Pos.String())
		b.WriteString(": ")
	}
	fmt.Fprintf(&b, "%s: [%s] %s", d.Severity, d.Analyzer, d.Message)
	return b.String()
}

// Error aggregates the error-severity diagnostics that made a program
// rejectable, so load failures carry the full structured findings.
type Error struct {
	Diags []Diagnostic
}

// Error renders every diagnostic, one per line.
func (e *Error) Error() string {
	lines := make([]string, len(e.Diags))
	for i, d := range e.Diags {
		lines[i] = d.String()
	}
	return "analysis: program rejected:\n  " + strings.Join(lines, "\n  ")
}

// Program is the unit of analysis: the IDB rules and their dependency
// graph, the integrity constraints, and the EDB schema (stored or
// declared relations with their arities). Build one with FromProgram (a
// freshly parsed source) or assemble it from a live knowledge base.
type Program struct {
	// Rules are the IDB rules, including bodiless IDB clauses.
	Rules []term.Rule
	// Graph is the dependency analysis of Rules. A knowledge base passes
	// the graph of the rules its load commits, which add to Rules the
	// stored facts of every predicate the load promotes, as bodiless
	// rules: they change no dependency, and they ground the predicate.
	Graph *depgraph.Graph
	// Facts are the EDB fact clauses, with positions, kept so the arity
	// analyzer can compare every use site (the EDB map records only one
	// arity per predicate).
	Facts []term.Rule
	// Constraints are the integrity constraints (headless clauses).
	Constraints []term.Formula
	// ConstraintPos are the constraint positions, parallel to
	// Constraints when known (may be shorter; missing entries are zero).
	ConstraintPos []term.Pos
	// EDB maps each extensional (stored or schema-declared) predicate to
	// its arity.
	EDB map[string]int
}

// FromProgram classifies a parsed source the way the knowledge base
// loads it: a predicate heading any non-fact clause is intensional and
// all its clauses are rules; ground bodiless clauses of other predicates
// are EDB facts. @key declarations contribute EDB arities.
func FromProgram(prog *parser.Program) *Program {
	intensional := make(map[string]bool)
	for _, c := range prog.Clauses {
		if !c.IsFact() {
			intensional[c.Head.Pred] = true
		}
	}
	p := &Program{EDB: make(map[string]int)}
	for _, c := range prog.Clauses {
		if c.IsFact() && !intensional[c.Head.Pred] {
			if _, ok := p.EDB[c.Head.Pred]; !ok {
				p.EDB[c.Head.Pred] = c.Head.Arity()
			}
			p.Facts = append(p.Facts, c)
		} else {
			p.Rules = append(p.Rules, c)
		}
	}
	for _, d := range prog.Declarations {
		if d.Kind == parser.DeclKey {
			if _, ok := p.EDB[d.Pred]; !ok && !intensional[d.Pred] {
				p.EDB[d.Pred] = d.Arity
			}
		}
	}
	p.Constraints = append(p.Constraints, prog.Constraints...)
	p.ConstraintPos = append(p.ConstraintPos, prog.ConstraintPos...)
	p.Graph = depgraph.New(p.Rules)
	return p
}

// Pass is the shared, read-only state one analyzer run sees: the program
// (its dependency analysis included) and what the suite derives from it
// once.
type Pass struct {
	Program *Program
	// Defined maps every predicate that is defined — heads a rule or has
	// an EDB relation — to true.
	Defined map[string]bool
}

// Analyzer is one check: a name (stable, used in diagnostics and golden
// files), a one-line doc string, and the run function.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) []Diagnostic
}

// Analyzers returns the full suite, in the order reports present them.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		safetyAnalyzer,
		arityAnalyzer,
		reservedAnalyzer,
		undefinedAnalyzer,
		unusedAnalyzer,
		recursionAnalyzer,
		contradictionAnalyzer,
		duplicateAnalyzer,
	}
}

// Report is the outcome of running a suite over a program.
type Report struct {
	// Diagnostics are all findings, sorted by position, then severity
	// (gravest first), then analyzer name.
	Diagnostics []Diagnostic `json:"diagnostics"`
	// Profile summarizes the program shape (rule counts per recursion
	// classification).
	Profile Profile `json:"profile"`
}

// Run executes the analyzers (the full suite when none are given) over
// the program and returns the aggregated report.
func Run(prog *Program, analyzers ...*Analyzer) *Report {
	if len(analyzers) == 0 {
		analyzers = Analyzers()
	}
	pass := &Pass{
		Program: prog,
		Defined: make(map[string]bool, len(prog.EDB)),
	}
	for pred := range prog.EDB {
		pass.Defined[pred] = true
	}
	for _, r := range prog.Rules {
		pass.Defined[r.Head.Pred] = true
	}
	// The engine's virtual relations are always defined (and grounded):
	// a body atom over sys_metric is served at query time, not by the
	// program.
	for _, d := range sysrel.Defs() {
		pass.Defined[d.Name] = true
	}
	rep := &Report{Profile: ProfileOf(prog)}
	for _, a := range analyzers {
		rep.Diagnostics = append(rep.Diagnostics, a.Run(pass)...)
	}
	sort.SliceStable(rep.Diagnostics, func(i, j int) bool {
		a, b := rep.Diagnostics[i], rep.Diagnostics[j]
		if a.Pos != b.Pos {
			if a.Pos.File != b.Pos.File {
				return a.Pos.File < b.Pos.File
			}
			if a.Pos.Line != b.Pos.Line {
				return a.Pos.Line < b.Pos.Line
			}
			return a.Pos.Col < b.Pos.Col
		}
		if a.Severity != b.Severity {
			return a.Severity > b.Severity
		}
		return a.Analyzer < b.Analyzer
	})
	return rep
}

// HasErrors reports whether any diagnostic is error-severity.
func (r *Report) HasErrors() bool { return len(r.Errors()) > 0 }

// Errors returns the error-severity diagnostics.
func (r *Report) Errors() []Diagnostic { return r.filter(SevError) }

// Warnings returns the warning-severity diagnostics.
func (r *Report) Warnings() []Diagnostic { return r.filter(SevWarning) }

func (r *Report) filter(sev Severity) []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diagnostics {
		if d.Severity == sev {
			out = append(out, d)
		}
	}
	return out
}

// ForPred returns the diagnostics whose subject is pred.
func (r *Report) ForPred(pred string) []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diagnostics {
		if d.Subject == pred {
			out = append(out, d)
		}
	}
	return out
}

// String renders the report, one diagnostic per line, ending with a
// summary count.
func (r *Report) String() string {
	var b strings.Builder
	for _, d := range r.Diagnostics {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	e, w := len(r.Errors()), len(r.Warnings())
	fmt.Fprintf(&b, "%d error(s), %d warning(s), %d diagnostic(s)\n", e, w, len(r.Diagnostics))
	return b.String()
}
