package main

// registrar: the paper's own knowledge base (§2.2) over generated
// students — non-recursive multi-way joins with comparison built-ins
// over stored relations, one small recursion, provenance, and point
// lookups.

import (
	"fmt"
	"math/rand"

	"kdb"
	"kdb/internal/eval"
	"kdb/internal/storage"
	"kdb/internal/term"
)

// registrarStudents is the student count at -scale 1, sized so a
// ten-second window holds well over minWindowOps ops on two vCPUs.
const registrarStudents = 3000

type registrarInstance struct {
	u       *registrar
	kb      *libKB
	program string
	script  []stmt
}

// registrarScript builds the thirteen statements of one op: the shapes
// of paper Examples 1 and 2, can_ta asked by course and by student, an
// explain of a pair the reference knows to be positive, the recursive
// prior in full, and eight point lookups on stored students.
func registrarScript(r *rand.Rand, u *registrar, program string) []stmt {
	var positive [2]string
	ta := u.canTA()
	for _, c := range u.complete { // first positive pair in generation order
		if ta[[2]string{c.student, c.course}] {
			positive = [2]string{c.student, c.course}
			break
		}
	}
	script := []stmt{
		{text: "retrieve honor(X) where enroll(X, databases).", want: u.honorEnrolled(u.enroll["databases"])},
		{text: "retrieve answer(X) where can_ta(X, databases) and student(X, math, V) and V > 3.7.", want: u.example2("databases", "math")},
		{text: "retrieve can_ta(X, databases).", want: u.canTAWhere("", "databases")},
		{text: fmt.Sprintf("retrieve can_ta(%s, Y).", positive[0]), want: u.canTAWhere(positive[0], "")},
		{text: "retrieve prior(X, Y).", want: u.prior()},
	}
	if positive[0] != "" {
		script = append(script, stmt{
			text:  fmt.Sprintf("explain can_ta(%s, %s).", positive[0], positive[1]),
			want:  expectLines([]string{fmt.Sprintf("can_ta(%s, %s)", positive[0], positive[1])}),
			facts: factsOf(program),
		})
	}
	for k := 0; k < 8; k++ {
		i := r.Intn(len(u.students))
		script = append(script, stmt{
			text: fmt.Sprintf("retrieve student(%s, M, G).", u.students[i].name),
			want: expectLines([]string{u.studentFact(i)}),
		})
	}
	return script
}

func setupRegistrar(seed int64, scale float64) (instance, error) {
	r := subSeed(seed, "registrar")
	u := genRegistrar(r, scaled(registrarStudents, scale, 40))
	program := u.program()
	kb, err := newLibKB(program, kdb.DescribeOptions{})
	if err != nil {
		return nil, err
	}
	return &registrarInstance{u: u, kb: kb, program: program, script: registrarScript(r, u, program)}, nil
}

func (in *registrarInstance) op(_, i int, lvl checkLevel, tr *tracer) opResult {
	var root int
	if tr != nil {
		root = tr.begin("op", 0, i+1)
		defer tr.end(root)
	}
	var res opResult
	for s := range in.script {
		res.add(in.kb.exec(&in.script[s], lvl, tr, root, i+1))
	}
	return res
}

func (in *registrarInstance) finish(map[string]float64) opResult { return opResult{} }
func (in *registrarInstance) close()                             {}

// retrieves is the script without its explain, for the per-strategy
// engine timings.
func retrieves(script []stmt) []stmt {
	var out []stmt
	for _, s := range script {
		if s.facts == nil {
			out = append(out, s)
		}
	}
	return out
}

func (in *registrarInstance) layers(m map[string]float64, sum spanSummary) {
	kb := in.kb
	st := kb.k.Store()
	program := in.program
	loadLayers(m, program)
	ruleLayers(m, kb.rules)
	evalLayers(m, kb, in.script, sum)
	m["obs.on_ratio"] = obsOnRatio(replayOn(program, in.script))

	rs := retrieves(in.script)
	m["eval.seminaive_ms"] = retrieveMS(eval.NewSemiNaive, st, kb.rules, rs, 3)
	m["eval.topdown_ms"] = retrieveMS(eval.NewTopDown, st, kb.rules, rs, 3)
	m["eval.magic_ms"] = retrieveMS(eval.NewMagic, st, kb.rules, rs, 3)

	// The join loop's unit prices on the relation the can_ta rules probe
	// most: complete/4, matched under a bound student.
	complete := st.Relation("complete")
	var tuples []storage.Tuple
	complete.Scan(func(t storage.Tuple) bool {
		tuples = append(tuples, t)
		return true
	})
	storageLayers(m, complete, tuples)
	termLayers(m, term.NewAtom("complete", term.Var("X"), term.Var("Y"), term.Var("Z"), term.Var("U")), term.Var("V"), complete)
}
