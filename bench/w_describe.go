package main

// describe: the paper's contribution. One small KB per family of
// knowledge query; no family stores a fact, so nothing under eval or
// storage runs.

import (
	"fmt"
	"strings"

	"kdb"
	"kdb/internal/builtin"
	"kdb/internal/parser"
	"kdb/internal/term"
)

// family is one KB of the describe workload with the statements asked of
// it and their closed-form reference answers, written by the same code
// that writes the rules.
type family struct {
	name    string
	program string
	opts    kdb.DescribeOptions
	stmts   []stmt
}

func conj(atoms []string) string { return strings.Join(atoms, " and ") }

// describeStmt is a statement whose reference is the given answer lines.
func describeStmt(fam, text string, answers ...string) stmt {
	want := expectLines(answers)
	if len(answers) == 0 {
		want = expect{count: 0, full: "no answer"}
	}
	return stmt{text: text, want: want, family: fam}
}

// verdictStmt is a statement answered by a single verdict line (or a
// fixed multi-line comparison), which counts as one answer.
func verdictStmt(fam, text, verdict string) stmt {
	return stmt{text: text, want: expect{count: 1, full: canon(verdict)}, family: fam}
}

// fanoutFamily: the subject has width alternative rules, each holding
// the hypothesis target and three filler atoms. Identifying target
// leaves the fillers: one answer per rule.
func fanoutFamily(width int) family {
	var sb strings.Builder
	var withHyp, plain []string
	for w := 0; w < width; w++ {
		var fill []string
		for f := 0; f < 3; f++ {
			fill = append(fill, fmt.Sprintf("extra%d_%d(X)", w, f))
		}
		fmt.Fprintf(&sb, "goal(X) :- target(X), %s.\n", strings.Join(fill, ", "))
		withHyp = append(withHyp, "goal(X) <- "+conj(fill))
		plain = append(plain, "goal(X) <- target(X) and "+conj(fill))
	}
	return family{name: "fanout", program: sb.String(), stmts: []stmt{
		describeStmt("fanout", "describe goal(X) where target(X).", withHyp...),
		describeStmt("fanout", "describe goal(X).", plain...),
	}}
}

// depthFamily: a chain goal → l1 → … → l<depth> → target ∧ side, so the
// identification happens depth levels down; side is what is left.
func depthFamily(depth int) family {
	var sb strings.Builder
	sb.WriteString("goal(X) :- l1(X).\n")
	for d := 1; d < depth; d++ {
		fmt.Fprintf(&sb, "l%d(X) :- l%d(X).\n", d, d+1)
	}
	fmt.Fprintf(&sb, "l%d(X) :- target(X), side%d(X).\n", depth, depth)
	return family{name: "depth", program: sb.String(), opts: kdb.DescribeOptions{MaxDepth: depth + 4}, stmts: []stmt{
		describeStmt("depth", "describe goal(X) where target(X).", fmt.Sprintf("goal(X) <- side%d(X)", depth)),
	}}
}

// hypothesisFamily: one rule of h conjuncts. Naming all of them leaves
// nothing; naming all but the last leaves the last.
func hypothesisFamily(h int) family {
	var parts []string
	for i := 0; i < h; i++ {
		parts = append(parts, fmt.Sprintf("part%d(X)", i))
	}
	f := family{name: "hypothesis", program: "goal(X) :- " + strings.Join(parts, ", ") + ".\n"}
	f.stmts = append(f.stmts, describeStmt("hypothesis", "describe goal(X) where "+conj(parts)+".", "goal(X) <- true"))
	if h > 1 {
		f.stmts = append(f.stmts, describeStmt("hypothesis", "describe goal(X) where "+conj(parts[:h-1])+".", "goal(X) <- "+parts[h-1]))
	}
	return f
}

// redundancyFamily: n+1 rules base, base∧opt0, base∧opt0∧opt1, …; every
// answer is subsumed by the first, so one survives the subsumption pass.
func redundancyFamily(n int) family {
	var sb strings.Builder
	for i := 0; i <= n; i++ {
		sb.WriteString("goal(X) :- base(X)")
		for j := 0; j < i; j++ {
			fmt.Fprintf(&sb, ", opt%d(X)", j)
		}
		sb.WriteString(".\n")
	}
	return family{name: "redundancy", program: sb.String(), stmts: []stmt{
		describeStmt("redundancy", "describe goal(X) where base(X).", "goal(X) <- true"),
	}}
}

// The remaining families are the paper's own programs; their references
// are the answers the paper prints, as corrected in EXPERIMENTS.md.

const example8Rules = `
p(X, Y) :- q(X, Z), r(Z, Y).
q(X, Y) :- q(X, Z), s(Z, Y).
q(X, Y) :- r(X, Y).
`

const reachRules = `
reach(X, Y) :- link(X, Y).
reach(X, Y) :- reach(Y, X).
`

func recursiveFamilies() []family {
	e6 := "describe prior(X, Y) where prior(databases, Y)."
	return []family{
		{name: "recursive", program: universityRules, stmts: []stmt{
			// Example 6, modified transformation (the paper's preferred form).
			describeStmt("recursive", e6, "prior(X, Y) <- X = databases", "prior(X, Y) <- prior(X, databases)"),
			// Example 7: the typing guard admits only the sound formula.
			describeStmt("recursive", "describe prior(X, Y) where prior(X, databases).", "prior(X, Y) <- Y = databases"),
		}},
		{name: "recursive", program: universityRules, opts: kdb.DescribeOptions{KeepSteps: true}, stmts: []stmt{
			// Example 6 in step form: the artificial predicate, under its
			// @name display name, is kept.
			describeStmt("recursive", e6, "prior(X, Y) <- X = databases", "prior(X, Y) <- chain(databases, X)"),
		}},
		{name: "recursive", program: example8Rules, stmts: []stmt{
			describeStmt("recursive", "describe p(X, Y) where r(a, Y).", "p(X, Y) <- q(X, a)"),
		}},
	}
}

func untypedFamily(bound int) family {
	return family{name: "untyped", program: reachRules, opts: kdb.DescribeOptions{UntypedBound: bound}, stmts: []stmt{
		describeStmt("untyped", "describe reach(X, Y) where link(Y, X).", "reach(X, Y) <- true"),
		describeStmt("untyped", "describe reach(X, Y) where reach(Y, X).", "reach(X, Y) <- true"),
	}}
}

func paperFamilies() []family {
	ta1 := "complete(X, databases, Z, U) and U > 3.3 and taught(V, databases, Z, W) and teach(V, databases)"
	return []family{
		{name: "ext", program: universityRules, stmts: []stmt{
			describeStmt("ext", "describe honor(X) where necessary complete(X, Y, Z, U) and U > 3.3."),
			verdictStmt("ext", "describe can_ta(X, Y) where not honor(X).", "false (the excluded knowledge is necessary)"),
			verdictStmt("ext", "describe where student(X, Y, Z) and Z < 3.5 and can_ta(X, U).", "false (the situation contradicts the knowledge base)"),
			describeStmt("ext", "describe * where honor(X).",
				"can_ta(X, W2) <- complete(X, W2, Z, 4)",
				"can_ta(X, W2) <- complete(X, W2, Z, U) and U > 3.3 and taught(V, W2, Z, W) and teach(V, W2)"),
			verdictStmt("ext", "compare (describe honor(X)) with (describe deans_list(X)).",
				"honor(X) vs deans_list(X): left subsumes right\n  shared concept: student(X, M, G) and G > 3.7\n  only deans_list: G > 3.9"),
		}},
		{name: "paper", program: universityRules, stmts: []stmt{
			describeStmt("paper", "describe can_ta(X, databases) where student(X, math, V) and V > 3.7.",
				"can_ta(X, databases) <- "+ta1, "can_ta(X, databases) <- complete(X, databases, Z, 4)"),
			describeStmt("paper", "describe honor(X).", "honor(X) <- student(X, Y, Z) and Z > 3.7"),
			describeStmt("paper", "describe can_ta(X, Y) where honor(X) and teach(susan, Y).",
				"can_ta(X, Y) <- complete(X, Y, Z, 4)",
				"can_ta(X, Y) <- complete(X, Y, Z, U) and U > 3.3 and taught(susan, Y, Z, W)"),
		}},
	}
}

func describeFamilies() []family {
	var fs []family
	for _, w := range []int{2, 8, 32} {
		fs = append(fs, fanoutFamily(w))
	}
	for _, d := range []int{2, 6, 12} {
		fs = append(fs, depthFamily(d))
	}
	for _, h := range []int{1, 3, 6} {
		fs = append(fs, hypothesisFamily(h))
	}
	for _, n := range []int{4, 8, 16} {
		fs = append(fs, redundancyFamily(n))
	}
	fs = append(fs, recursiveFamilies()...)
	for _, b := range []int{1, 2, 4} {
		fs = append(fs, untypedFamily(b))
	}
	return append(fs, paperFamilies()...)
}

type describeInstance struct {
	fams []family
	kbs  []*libKB
}

// setupDescribe builds one KB per family. The families are fixed — the
// paper's programs and closed-form sweeps — so the seed only permutes
// the order in which the script asks them.
func setupDescribe(seed int64, _ float64) (instance, error) {
	in := &describeInstance{fams: describeFamilies()}
	subSeed(seed, "describe").Shuffle(len(in.fams), func(i, j int) { in.fams[i], in.fams[j] = in.fams[j], in.fams[i] })
	for _, f := range in.fams {
		kb, err := newLibKB(f.program, f.opts)
		if err != nil {
			return nil, fmt.Errorf("family %s: %w", f.name, err)
		}
		in.kbs = append(in.kbs, kb)
	}
	return in, nil
}

func (in *describeInstance) op(_, i int, lvl checkLevel, tr *tracer) opResult {
	var root int
	if tr != nil {
		root = tr.begin("op", 0, i+1)
		defer tr.end(root)
	}
	var res opResult
	for f := range in.fams {
		for s := range in.fams[f].stmts {
			res.add(in.kbs[f].exec(&in.fams[f].stmts[s], lvl, tr, root, i+1))
		}
	}
	return res
}

func (in *describeInstance) finish(map[string]float64) opResult { return opResult{} }
func (in *describeInstance) close()                             {}

func (in *describeInstance) layers(m map[string]float64, sum spanSummary) {
	var program strings.Builder
	var stmts, answers int
	var subjects []term.Atom
	var comparisons []term.Formula
	var rules []term.Rule
	addComparisons := func(f term.Formula) {
		if cmp, _ := builtin.Split(f); len(cmp) > 0 {
			comparisons = append(comparisons, cmp)
		}
	}
	for f, fam := range in.fams {
		program.WriteString(fam.program)
		for _, s := range fam.stmts {
			stmts++
			answers += s.want.count
			q, err := parser.ParseQuery(s.text)
			must(err)
			if d, ok := q.(*parser.Describe); ok && !d.Wildcard && !d.Subjectless {
				subjects = append(subjects, d.Subject)
				addComparisons(d.Where)
			}
		}
		for _, r := range in.kbs[f].k.Rules() {
			rules = append(rules, r)
			addComparisons(r.Body)
		}
	}
	for _, name := range []string{"fanout", "depth", "hypothesis", "redundancy", "recursive", "untyped", "ext", "paper"} {
		m["core."+name+"_us"] = sum.medianUS("core." + name)
	}
	m["core.answers_per_describe"] = ratio(float64(answers), float64(stmts))

	// The university rules stand for the rule-set constructions: they
	// hold the recursion the §5.2 transformation exists for.
	uni, err := newLibKB(universityRules, kdb.DescribeOptions{})
	must(err)
	ruleLayers(m, uni.k.Rules())
	loadLayers(m, program.String())
	describeLayers(m, subjects, rules, comparisons)
	m["obs.on_ratio"] = obsOnRatio(func(opts ...kdb.Option) func() {
		var kbs []*libKB
		for _, f := range in.fams {
			kb, err := newLibKB(f.program, f.opts, opts...)
			must(err)
			kbs = append(kbs, kb)
		}
		return func() {
			for f := range in.fams {
				for _, s := range in.fams[f].stmts {
					_, err := kbs[f].k.ExecStringContext(ctx, s.text)
					must(err)
				}
			}
		}
	})
}
