package main

// Seeded input generators. The seed reaches only this file: kdb
// receives the generated program text and statements, never the seed
// or the records the references are computed from.

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// subSeed derives an independent stream per workload from the run seed,
// so adding a workload never shifts another workload's inputs.
func subSeed(seed int64, name string) *rand.Rand {
	h := int64(1469598103934665603)
	for _, c := range name {
		h = (h ^ int64(c)) * 1099511628211
	}
	return rand.New(rand.NewSource(seed*1000003 + h))
}

// scaled multiplies a size by the -scale factor, never below min.
func scaled(n int, scale float64, min int) int {
	v := int(float64(n)*scale + 0.5)
	if v < min {
		v = min
	}
	return v
}

// --- transitive closure inputs (closure, reach_bound) ---

// dag is a DAG over nodes 0..n-1 with forward edges only. label maps a
// node's position in the topological order to the number in its name,
// so names carry no hint of the order.
type dag struct {
	n     int
	edges [][2]int // in positions, no duplicates, in seeded order
	label []int
}

func (g *dag) name(i int) string { return fmt.Sprintf("n%04d", g.label[i]) }

// genDAG builds the graph of the closure workloads: a chain through all
// nodes, plus a shortcut out of every third node that skips one to seven
// nodes, the lengths cycling. The shape is the same on every seed; the
// seed chooses the node names and the order of the facts, so each run
// sees a different program that costs the same to evaluate. (With
// seeded shortcuts the closure stayed at n(n-1)/2 pairs but allocations
// per op still moved by several percent from seed to seed, which the
// acceptance rule, taking its ten runs on ten seeds, counts as noise.)
func genDAG(r *rand.Rand, n int) *dag {
	g := &dag{n: n, label: r.Perm(n)}
	for i := 0; i < n-1; i++ {
		g.edges = append(g.edges, [2]int{i, i + 1})
	}
	for k := 0; 3*k+9 < n; k++ {
		g.edges = append(g.edges, [2]int{3*k + 1, 3*k + 3 + k%7})
	}
	r.Shuffle(len(g.edges), func(i, j int) { g.edges[i], g.edges[j] = g.edges[j], g.edges[i] })
	return g
}

const pathRules = `
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
`

// program renders the graph as kdb source text with the closure rules.
func (g *dag) program() string {
	var sb strings.Builder
	for _, e := range g.edges {
		fmt.Fprintf(&sb, "edge(%s, %s).\n", g.name(e[0]), g.name(e[1]))
	}
	sb.WriteString(pathRules)
	return sb.String()
}

// --- registrar inputs (registrar, durable, serve) ---

// universityRules are the IDB and schema annotations of
// testdata/university.kdb (paper §2.2), repeated here because the
// benchmark may only read files under its own directory.
const universityRules = `
honor(X) :- student(X, Y, Z), Z > 3.7.
prior(X, Y) :- prereq(X, Y).
prior(X, Y) :- prereq(X, Z), prior(Z, Y).
can_ta(X, Y) :- honor(X), complete(X, Y, Z, U), U > 3.3, taught(V, Y, Z, W), teach(V, Y).
can_ta(X, Y) :- honor(X), complete(X, Y, Z, 4).
deans_list(X) :- student(X, M, G), G > 3.9.
@key student/3 1.
@name prior_step chain.
`

var (
	majors    = []string{"math", "cs", "physics", "chemistry", "history", "biology"}
	semesters = []string{"f87", "s88", "f88", "s89", "f89"}
)

type student struct {
	name  string
	major string
	gpa   float64
}

type completion struct {
	student, course, sem string
	grade                float64
}

type taughtRec struct {
	prof, course, sem string
}

// registrar is the generated university: the records the references
// loop over, and the program text kdb loads.
type registrar struct {
	students []student
	courses  []string
	prereq   [][2]string         // (course, its prerequisite)
	teach    map[string]string   // course -> professor teaching it now
	taught   []taughtRec         // who taught what, when
	enroll   map[string][]string // course -> students, in generation order
	complete []completion

	honorSet map[string]bool // memo of honor()
}

func numText(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func studentName(i int) string { return fmt.Sprintf("s%05d", i) }

// courseName keeps the paper's `databases` as course 0 so the script can
// use the paper's own statements verbatim.
func courseName(i int) string {
	if i == 0 {
		return "databases"
	}
	return fmt.Sprintf("c%02d", i)
}

// genRegistrar builds n students over a fixed 30-course catalogue. Every
// attribute is a fixed multiset dealt out in seeded order: GPAs and
// grades cycle through the multiples of 0.1 in [2, 4] (one student in
// seven is an honor student, and the comparison built-ins reject most
// candidates they see), every student enrols in and has completed one of
// the five busy courses and one of the other twenty-five. So each
// relation, and each statement's answer, has the same size up to a few
// percent on every seed, while who is in it differs.
func genRegistrar(r *rand.Rand, n int) *registrar {
	const nCourses, busy = 30, 5
	u := &registrar{teach: map[string]string{}, enroll: map[string][]string{}}
	for i := 0; i < nCourses; i++ {
		u.courses = append(u.courses, courseName(i))
	}
	// deal returns 0..k-1 repeated to length n, shuffled.
	deal := func(k int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = i % k
		}
		r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	// prereq: a chain through the catalogue plus a seeded shortcut out of
	// every third course, so prior always has 30*29/2 pairs.
	for i := 0; i < nCourses-1; i++ {
		u.prereq = append(u.prereq, [2]string{u.courses[i], u.courses[i+1]})
	}
	for i := 0; i+4 < nCourses; i += 3 {
		a := i + r.Intn(3)
		b := min(a+2+r.Intn(3), nCourses-1)
		u.prereq = append(u.prereq, [2]string{u.courses[a], u.courses[b]})
	}
	// Ten professors. Whoever teaches a course now also taught it in
	// three of the five semesters (the seed says which); a colleague
	// taught it in the other two.
	profs := r.Perm(nCourses)
	for i, c := range u.courses {
		now := fmt.Sprintf("p%02d", profs[i]%10)
		other := fmt.Sprintf("p%02d", (profs[i]+1)%10)
		u.teach[c] = now
		for k, s := range r.Perm(len(semesters)) {
			p := now
			if k >= 3 {
				p = other
			}
			u.taught = append(u.taught, taughtRec{p, c, semesters[s]})
		}
	}
	gpa, major := deal(21), deal(len(majors))
	enrolBusy, enrolOther := deal(busy), deal(nCourses-busy)
	doneBusy, doneOther := deal(busy), deal(nCourses-busy)
	sem1, sem2, grade1, grade2 := deal(len(semesters)), deal(len(semesters)), deal(21), deal(21)
	for i := 0; i < n; i++ {
		s := student{name: studentName(i), major: majors[major[i]], gpa: float64(20+gpa[i]) / 10}
		u.students = append(u.students, s)
		for _, c := range []string{u.courses[enrolBusy[i]], u.courses[busy+enrolOther[i]]} {
			u.enroll[c] = append(u.enroll[c], s.name)
		}
		u.complete = append(u.complete,
			completion{s.name, u.courses[doneBusy[i]], semesters[sem1[i]], float64(20+grade1[i]) / 10},
			completion{s.name, u.courses[busy+doneOther[i]], semesters[sem2[i]], float64(20+grade2[i]) / 10})
	}
	return u
}

// program renders the registrar as kdb source text: facts first, then
// the paper's rules.
func (u *registrar) program() string {
	var sb strings.Builder
	for _, s := range u.students {
		fmt.Fprintf(&sb, "student(%s, %s, %s).\n", s.name, s.major, numText(s.gpa))
	}
	for i, c := range u.courses {
		fmt.Fprintf(&sb, "course(%s, %d).\n", c, 3+i%2)
	}
	for _, p := range u.prereq {
		fmt.Fprintf(&sb, "prereq(%s, %s).\n", p[0], p[1])
	}
	for _, c := range u.courses {
		fmt.Fprintf(&sb, "teach(%s, %s).\n", u.teach[c], c)
	}
	for _, t := range u.taught {
		fmt.Fprintf(&sb, "taught(%s, %s, %s, 3.5).\n", t.prof, t.course, t.sem)
	}
	for _, c := range u.courses {
		for _, s := range u.enroll[c] {
			fmt.Fprintf(&sb, "enroll(%s, %s).\n", s, c)
		}
	}
	for _, c := range u.complete {
		fmt.Fprintf(&sb, "complete(%s, %s, %s, %s).\n", c.student, c.course, c.sem, numText(c.grade))
	}
	sb.WriteString(universityRules)
	return sb.String()
}
