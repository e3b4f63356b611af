package kb

import (
	"sync"

	"kdb/internal/analysis"
	"kdb/internal/catalog"
	"kdb/internal/core"
	"kdb/internal/depgraph"
	"kdb/internal/eval"
	"kdb/internal/term"
)

// program is one generation of the knowledge base's program: the
// dependency graph of the rules a load committed — built once, by the
// load, and shared by the analysis, the evaluator, the describer,
// sys_rule and Validate — the constraints, the load's analysis report,
// and the describe options. It is immutable once committed; a load or
// SetDescribeOptions commits a new one. The rule set prepared for
// evaluation and the describer are built from it on first use, at most
// once per generation and never by the load itself, so a KB that only
// answers describes holds no rule set.
type program struct {
	graph       *depgraph.Graph
	constraints []term.Formula
	// report is the analysis of the whole program by the load that
	// committed it; nil before the first load.
	report *analysis.Report
	opts   core.Options

	ruleSet   *lazy[*eval.RuleSet]
	describer *lazy[*core.Describer]
}

// noRules is the dependency graph of the empty program, which every KB
// starts from.
var noRules = depgraph.New(nil)

func newProgram(g *depgraph.Graph, constraints []term.Formula, rep *analysis.Report, opts core.Options) *program {
	return &program{
		graph: g, constraints: constraints, report: rep, opts: opts,
		ruleSet:   new(lazy[*eval.RuleSet]),
		describer: new(lazy[*core.Describer]),
	}
}

// withOptions returns the generation with other describe options: it
// shares everything but the describer.
func (p *program) withOptions(opts core.Options) *program {
	q := *p
	q.opts = opts
	q.describer = new(lazy[*core.Describer])
	return &q
}

// prepared returns the rules analysed for evaluation.
func (p *program) prepared() *eval.RuleSet {
	rs, _ := p.ruleSet.get(func() (*eval.RuleSet, error) { return eval.Prepare(p.graph), nil })
	return rs
}

// describe returns the describe engine, over the candidate keys cat
// declares and the options with the loaded constraints added.
func (p *program) describe(cat *catalog.Catalog) (*core.Describer, error) {
	return p.describer.get(func() (*core.Describer, error) {
		keys := make(map[string][][]int)
		for _, class := range []catalog.Class{catalog.ClassEDB, catalog.ClassIDB} {
			for _, pr := range cat.Preds(class) {
				if len(pr.Keys) > 0 {
					keys[pr.Name] = pr.Keys
				}
			}
		}
		opts := p.opts
		opts.Constraints = append(append([]term.Formula{}, opts.Constraints...), p.constraints...)
		return core.Build(p.graph, keys, opts)
	})
}

// lazy is a value built on first use, at most once however many
// goroutines ask for it at the same time.
type lazy[T any] struct {
	once sync.Once
	v    T
	err  error
}

func (l *lazy[T]) get(build func() (T, error)) (T, error) {
	l.once.Do(func() { l.v, l.err = build() })
	return l.v, l.err
}
