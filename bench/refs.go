package main

// References: every expected answer is computed here from the generated
// records with plain Go, never by asking kdb.

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
)

// expect is the reference answer to one statement: how many answers,
// and the full rendering (one answer per line, sorted) that kdb's
// result must equal modulo variable renaming.
type expect struct {
	count int
	full  string
}

// expectLines builds an expect from unsorted answer lines. An empty set
// renders the way kdb renders an empty retrieve.
func expectLines(lines []string) expect {
	if len(lines) == 0 {
		return expect{count: 0, full: "no answers"}
	}
	return expect{count: len(lines), full: canon(strings.Join(lines, "\n"))}
}

var varToken = regexp.MustCompile(`\b[A-Z][A-Za-z0-9_]*\b`)

// canon renders an answer text order- and naming-independently: within
// each line variables are renamed V1, V2, … by first occurrence, then
// the lines are sorted. Two describe answers that differ only in the
// names kdb invents for fresh variables compare equal.
func canon(text string) string {
	lines := strings.Split(strings.TrimSpace(text), "\n")
	for i, ln := range lines {
		if !varToken.MatchString(ln) {
			continue
		}
		names := map[string]string{}
		lines[i] = varToken.ReplaceAllStringFunc(ln, func(v string) string {
			if _, ok := names[v]; !ok {
				names[v] = fmt.Sprintf("V%d", len(names)+1)
			}
			return names[v]
		})
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// --- closure, reach_bound ---

// reach lists the nodes reachable from start by breadth-first search,
// ascending.
func (g *dag) reach(start int) []int {
	adj := make([][]int, g.n)
	for _, e := range g.edges {
		adj[e[0]] = append(adj[e[0]], e[1])
	}
	seen := make([]bool, g.n)
	queue := []int{start}
	var out []int
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				out = append(out, w)
				queue = append(queue, w)
			}
		}
	}
	sort.Ints(out)
	return out
}

// pathFrom is the reference answer to `retrieve path(start, Y).`
func (g *dag) pathFrom(start int) expect {
	var lines []string
	for _, y := range g.reach(start) {
		lines = append(lines, fmt.Sprintf("path(%s, %s)", g.name(start), g.name(y)))
	}
	return expectLines(lines)
}

// pathAll is the reference answer to `retrieve path(X, Y).`
func (g *dag) pathAll() expect {
	var lines []string
	for x := 0; x < g.n; x++ {
		for _, y := range g.reach(x) {
			lines = append(lines, fmt.Sprintf("path(%s, %s)", g.name(x), g.name(y)))
		}
	}
	return expectLines(lines)
}

// --- registrar ---

// honor is the paper's first rule by hand: a GPA above 3.7. The set is
// computed once; durable asks for it inside every op.
func (u *registrar) honor() map[string]bool {
	if u.honorSet == nil {
		u.honorSet = map[string]bool{}
		for _, s := range u.students {
			if s.gpa > 3.7 {
				u.honorSet[s.name] = true
			}
		}
	}
	return u.honorSet
}

// canTA evaluates the paper's two can_ta rules by hand: an honor
// student who completed the course with a 4, or with more than 3.3
// in a semester taught by the professor teaching it now.
func (u *registrar) canTA() map[[2]string]bool {
	honor := u.honor()
	taughtBy := map[[2]string]map[string]bool{} // (course, sem) -> professors
	for _, t := range u.taught {
		k := [2]string{t.course, t.sem}
		if taughtBy[k] == nil {
			taughtBy[k] = map[string]bool{}
		}
		taughtBy[k][t.prof] = true
	}
	out := map[[2]string]bool{}
	for _, c := range u.complete {
		if !honor[c.student] {
			continue
		}
		if c.grade == 4 || (c.grade > 3.3 && taughtBy[[2]string{c.course, c.sem}][u.teach[c.course]]) {
			out[[2]string{c.student, c.course}] = true
		}
	}
	return out
}

// honorEnrolled answers `retrieve honor(X) where enroll(X, course).`
// (paper Example 1) over an explicit enrolment list, so durable can pass
// its model's current list.
func (u *registrar) honorEnrolled(enrolled []string) expect {
	honor := u.honor()
	seen := map[string]bool{}
	var lines []string
	for _, s := range enrolled {
		if honor[s] && !seen[s] {
			seen[s] = true
			lines = append(lines, fmt.Sprintf("honor(%s)", s))
		}
	}
	return expectLines(lines)
}

// example2 answers `retrieve answer(X) where can_ta(X, course) and
// student(X, major, V) and V > 3.7.` (paper Example 2).
func (u *registrar) example2(course, major string) expect {
	ta := u.canTA()
	var lines []string
	for _, s := range u.students {
		if s.major == major && s.gpa > 3.7 && ta[[2]string{s.name, course}] {
			lines = append(lines, fmt.Sprintf("answer(%s)", s.name))
		}
	}
	return expectLines(lines)
}

// canTAWhere answers `retrieve can_ta(student, course).` with either
// argument left open (""): a variable in its place.
func (u *registrar) canTAWhere(student, course string) expect {
	var lines []string
	for k := range u.canTA() {
		if (student == "" || k[0] == student) && (course == "" || k[1] == course) {
			lines = append(lines, fmt.Sprintf("can_ta(%s, %s)", k[0], k[1]))
		}
	}
	return expectLines(lines)
}

// prior answers `retrieve prior(X, Y).`: the transitive closure of the
// prerequisite pairs, by search from every course.
func (u *registrar) prior() expect {
	adj := map[string][]string{}
	for _, p := range u.prereq {
		adj[p[0]] = append(adj[p[0]], p[1])
	}
	var lines []string
	for _, c := range u.courses {
		seen := map[string]bool{}
		stack := []string{c}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range adj[v] {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, w)
					lines = append(lines, fmt.Sprintf("prior(%s, %s)", c, w))
				}
			}
		}
	}
	return expectLines(lines)
}

func (u *registrar) studentFact(i int) string {
	s := u.students[i]
	return fmt.Sprintf("student(%s, %s, %s)", s.name, s.major, numText(s.gpa))
}

// factsOf is the set of stored facts of a generated program, in kdb's
// rendering; explain trees may only bottom out in these.
func factsOf(program string) map[string]bool {
	out := map[string]bool{}
	for _, ln := range strings.Split(program, "\n") {
		if strings.HasSuffix(ln, ").") && !strings.Contains(ln, ":-") {
			out[strings.TrimSuffix(ln, ".")] = true
		}
	}
	return out
}
