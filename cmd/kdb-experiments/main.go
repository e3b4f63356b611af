// Command kdb-experiments regenerates every experiment in EXPERIMENTS.md:
// the worked examples of "Querying Database Knowledge" (Motro & Yuan,
// SIGMOD 1990) — the paper has no tables or figures; its evaluation is
// these examples — plus the Section 6 extension queries. For each
// experiment it prints the query, the paper's reported answer, the
// measured answer, and a MATCH/DIFF verdict (answers are compared as sets
// of formulas modulo variable renaming).
//
// Usage:
//
//	kdb-experiments [-data testdata] [-stats] [-timeout DUR]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"unicode"

	"kdb"
)

// experiment is one reproducible unit.
type experiment struct {
	id    string
	locus string // where in the paper
	text  string // English form
	setup func(dataDir string) (*kdb.KB, error)
	query string
	// paper holds the paper's reported answer, one formula per line
	// (empty when the paper reports no concrete answer — facts differ).
	paper []string
	// note documents interpretation decisions / corrections.
	note string
	// exact requires line-set equality modulo variable renaming; without
	// it the experiment only reports the measured answer.
	exact bool
}

// kbOptions configure every experiment KB (set from the flags).
var kbOptions []kdb.Option

func universitySetup(dataDir string) (*kdb.KB, error) {
	k := kdb.New(kbOptions...)
	return k, k.LoadFile(filepath.Join(dataDir, "university.kdb"))
}

func routesSetup(dataDir string) (*kdb.KB, error) {
	k := kdb.New(kbOptions...)
	return k, k.LoadFile(filepath.Join(dataDir, "routes.kdb"))
}

func inlineSetup(src string) func(string) (*kdb.KB, error) {
	return func(string) (*kdb.KB, error) {
		k := kdb.New(kbOptions...)
		return k, k.LoadString(src)
	}
}

func experiments() []experiment {
	return []experiment{
		{
			id: "E1", locus: "§3.1 Example 1",
			text:  "Retrieve the honor students enrolled in the databases course.",
			setup: universitySetup,
			query: `retrieve honor(X) where enroll(X, databases).`,
			paper: []string{"honor(ann)", "honor(dan)"},
			note:  "The paper reports no extension (it lists no facts); expected answer computed from the sample facts of testdata/university.kdb.",
			exact: true,
		},
		{
			id: "E2", locus: "§3.1 Example 2",
			text:  "Retrieve the math students with GPA above 3.7 eligible for TA-ship in databases (ad-hoc subject `answer`).",
			setup: universitySetup,
			query: `retrieve answer(X) where can_ta(X, databases) and student(X, math, V) and V > 3.7.`,
			paper: []string{"answer(ann)", "answer(cora)"},
			note:  "Expected answer computed from the sample facts; `answer` is not a known predicate (paper's note).",
			exact: true,
		},
		{
			id: "E3", locus: "§3.2 Example 3",
			text:  "When is a math student whose GPA is above 3.7 eligible for teaching assistantship in the databases course?",
			setup: universitySetup,
			query: `describe can_ta(X, databases) where student(X, math, V) and V > 3.7.`,
			paper: []string{
				"can_ta(X, databases) <- complete(X, databases, Z, U) and U > 3.3 and taught(V, databases, Z, W) and teach(V, databases)",
				"can_ta(X, databases) <- complete(X, databases, Z, 4)",
			},
			note:  "The paper's first formula prints taught(V, Y, Z, W) ∧ teach(V, Y) with Y unbound — a typo (Y is unified with `databases` by the subject); we reproduce the corrected form.",
			exact: true,
		},
		{
			id: "E4", locus: "§3.2 Example 4",
			text:  "What does it take to be an honor student?",
			setup: universitySetup,
			query: `describe honor(X).`,
			paper: []string{"honor(X) <- student(X, Y, Z) and Z > 3.7"},
			note:  "The paper prints `X > 3.7` in the body — a typo for Z > 3.7 (X is the student's name).",
			exact: true,
		},
		{
			id: "E5", locus: "§4 Example 5",
			text:  "When is an honor student eligible for a teaching assistantship in a course currently taught by Susan?",
			setup: universitySetup,
			query: `describe can_ta(X, Y) where honor(X) and teach(susan, Y).`,
			paper: []string{
				"can_ta(X, Y) <- complete(X, Y, Z, 4)",
				"can_ta(X, Y) <- complete(X, Y, Z, U) and U > 3.3 and taught(susan, Y, Z, W)",
			},
			exact: true,
		},
		{
			id: "E6", locus: "§5 Example 6",
			text:  "When is a course X prior to another course Y, given that databases is prior to Y?",
			setup: universitySetup,
			query: `describe prior(X, Y) where prior(databases, Y).`,
			paper: []string{
				"prior(X, Y) <- X = databases",
				"prior(X, Y) <- prior(X, databases)",
			},
			note:  "Algorithm 1 diverges on this query; Algorithm 2 terminates. We print the paper's preferred rendering (the modified transformation, which avoids the artificial step predicate).",
			exact: true,
		},
		{
			id: "E7", locus: "§5 Example 7",
			text:  "When is a course X prior to Y, given that X is prior to databases? (typed substitutions must reject the unsound loop answers)",
			setup: universitySetup,
			query: `describe prior(X, Y) where prior(X, databases).`,
			paper: []string{"prior(X, Y) <- Y = databases"},
			note:  "The paper shows the infinite UNSOUND answer the untyped algorithm would emit; Algorithm 2's typing guard (§5.3) admits only the first, sound formula — which is what we reproduce.",
			exact: true,
		},
		{
			id: "E8", locus: "§5 Example 8",
			text: "describe p(X, Y) where r(a, Y) over the p/q/r/s program — the naive algorithm hangs; Algorithm 2 terminates.",
			setup: inlineSetup(`
p(X, Y) :- q(X, Z), r(Z, Y).
q(X, Y) :- q(X, Z), s(Z, Y).
q(X, Y) :- r(X, Y).
`),
			query: `describe p(X, Y) where r(a, Y).`,
			paper: []string{"p(X, Y) <- q(X, a)"},
			note:  "The paper demonstrates only the non-termination; the expected (most general, sound) formula identifies the r conjunct with the hypothesis and leaves q residual. Termination itself is the reproduced claim.",
			exact: false,
		},
		{
			id: "E9", locus: "§1 intro, second example",
			text: "\"Must all foreign students be married?\" — a knowledge query, versus the data query \"Are all foreign students married?\"",
			setup: inlineSetup(`
person(ann, usa, single).
person(lee, france, married).
person(kim, japan, married).
foreign(X) :- person(X, N, M), N != usa.
% University policy: foreign students must be married (visa rule).
married_required(X) :- foreign(X).
`),
			query: `describe married_required(X) where foreign(X).`,
			paper: []string{"married_required(X) <- true"},
			note:  "The paper poses the question without a concrete KB. We model the policy as an IDB rule; the describe answer `<- true` says the knowledge REQUIRES it (\"Must they? — yes\"), independent of the stored extension.",
			exact: true,
		},
		{
			id: "E10", locus: "§5.3 end / §1 intro sixth example",
			text: "\"When x is reachable from y, is it guaranteed that y is also reachable from x?\" — untyped symmetry rule under bounded application.",
			setup: inlineSetup(`
link(a, b).
reach(X, Y) :- link(X, Y).
reach(X, Y) :- reach(Y, X).
`),
			query: `describe reach(X, Y) where reach(Y, X).`,
			paper: []string{"reach(X, Y) <- true"},
			note:  "The symmetry rule is not typed w.r.t. reach, so the transformation does not apply; the bounded mode (§5.3, end) applies the rule a limited number of times. `<- true` answers the English question with YES.",
			exact: false,
		},
		{
			id: "X1", locus: "§6 extension 1",
			text:  "describe honor(X) where necessary complete(X,Y,Z,U) and U > 3.3 — only answers where the whole hypothesis was needed.",
			setup: universitySetup,
			query: `describe honor(X) where necessary complete(X, Y, Z, U) and U > 3.3.`,
			paper: []string{"no answer"},
			note:  "complete never participates in a derivation of honor, so under `necessary` no answer survives (the paper's motivating contrast: without `necessary` the answer equals Example 4's).",
			exact: true,
		},
		{
			id: "X2", locus: "§6 extension 2",
			text:  "describe can_ta(X, Y) where not honor(X) — is honor status necessary for teaching assistantship?",
			setup: universitySetup,
			query: `describe can_ta(X, Y) where not honor(X).`,
			paper: []string{"false (the excluded knowledge is necessary)"},
			note:  "The paper: \"The answer false would indicate that honor status is necessary for teaching assistantship.\"",
			exact: true,
		},
		{
			id: "X3", locus: "§6 extension 3",
			text:  "describe where student(X,Y,Z) and Z < 3.5 and can_ta(X,U) — can a student with GPA under 3.5 be a TA?",
			setup: universitySetup,
			query: `describe where student(X, Y, Z) and Z < 3.5 and can_ta(X, U).`,
			paper: []string{"false (the situation contradicts the knowledge base)"},
			note:  "Requires the functional reading of student (one GPA per student), declared as `@key student/3 1.`; without the key no sound procedure can refute the hypothetical.",
			exact: true,
		},
		{
			id: "X4", locus: "§6 extension 4",
			text:  "describe * where honor(X) — what subjects are derivable from honor status?",
			setup: universitySetup,
			query: `describe * where honor(X).`,
			paper: []string{
				"can_ta(X, W2) <- complete(X, W2, Z, 4)",
				"can_ta(X, W2) <- complete(X, W2, Z, U) and U > 3.3 and taught(V, W2, Z, W) and teach(V, W2)",
			},
			note:  "The paper sketches the query (\"the advantages of honor status\") without an answer; both can_ta routes are derivable from the qualifier.",
			exact: true,
		},
		{
			id: "X5", locus: "§6 final extension",
			text:  "compare (describe honor(X)) with (describe deans_list(X)) — honor subsumes dean's list; the shared concept and the difference are elucidated.",
			setup: universitySetup,
			query: `compare (describe honor(X)) with (describe deans_list(X)).`,
			paper: []string{
				"honor(X) vs deans_list(X): left subsumes right",
				"  shared concept: student(X, M, G) and G > 3.7",
				"  only deans_list: G > 3.9",
			},
			note:  "The paper describes the intended behaviour (maximal shared concept; subsumption; unrelated) without a worked example; deans_list(GPA > 3.9) is our §2.2-style instantiation.",
			exact: true,
		},
		{
			id: "X6", locus: "§1 intro, third example",
			text: "\"Could an honor student be foreign?\" — a hypothetical item of knowledge checked for contradiction with the stored knowledge.",
			setup: inlineSetup(`
honor(X) :- student2(X, G, N), G > 3.7.
foreign(X) :- student2(X, G, N), N != usa.
@key student2/3 1.
% Scholarship policy: honor status is restricted to domestic students.
:- honor(X), foreign(X).
`),
			query: `describe where honor(X) and foreign(X).`,
			paper: []string{"false (the situation contradicts the knowledge base)"},
			note:  "The paper: \"the system must check whether a hypothetical item of knowledge (e.g., a foreign honor student) would contradict the stored knowledge.\" The contradiction source here is an integrity constraint — the §2.1 second Horn-clause form, which the paper defines and sets aside; without it the answer is true.",
			exact: true,
		},
		{
			id: "R1", locus: "§1 intro, fifth example",
			text:  "\"List all points reachable from la\" (data) vs \"Do you know how to get from any point to any other point?\" (knowledge).",
			setup: routesSetup,
			query: `describe reachable(X, Y).`,
			paper: []string{
				"reachable(X, Y) <- flight(X, Y)",
				"reachable(X, Y) <- flight(X, Z) and reachable(Z, Y)",
			},
			note:  "A definition of reachability IS available — the describe answer lists it, answering the intro's fifth English query.",
			exact: true,
		},
	}
}

func main() {
	dataDir := flag.String("data", "testdata", "directory containing the .kdb files")
	stats := flag.Bool("stats", false, "print evaluation statistics for each experiment's retrieves")
	timeout := flag.Duration("timeout", 0, "per-query wall-time limit (0 = unlimited); a breaching experiment reports ERROR and the sweep continues")
	flag.Parse()
	kbOptions = []kdb.Option{kdb.WithQueryLimits(kdb.QueryLimits{MaxWall: *timeout})}
	os.Exit(run(*dataDir, *stats, os.Stdout))
}

func run(dataDir string, showStats bool, out io.Writer) int {
	fmt.Fprintln(out, "kdb-experiments — reproducing the worked examples of Motro & Yuan, SIGMOD 1990")
	printProfiles(dataDir, out)
	fmt.Fprintln(out)
	pass, fail := 0, 0
	for _, e := range experiments() {
		ok := runOne(e, dataDir, showStats, out)
		if ok {
			pass++
		} else {
			fail++
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "summary: %d/%d experiments match\n", pass, pass+fail)
	if fail > 0 {
		return 1
	}
	return 0
}

// printProfiles runs the static-analysis suite over the experiment
// datasets and prints each program profile (rule counts per recursion
// classification) in the output header, so a reader knows which
// describe algorithm the experiments exercise before the results.
func printProfiles(dataDir string, out io.Writer) {
	for _, name := range []string{"university.kdb", "routes.kdb"} {
		path := filepath.Join(dataDir, name)
		src, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		prog, err := kdb.ParseProgramFile(path, string(src))
		if err != nil {
			fmt.Fprintf(out, "profile %s: parse error: %v\n", name, err)
			continue
		}
		rep := kdb.Analyze(prog)
		fmt.Fprintf(out, "profile %s: %s", name, rep.Profile)
		if n := len(rep.Errors()) + len(rep.Warnings()); n > 0 {
			fmt.Fprintf(out, " — %d finding(s), run `kdb check %s`", n, path)
		}
		fmt.Fprintln(out)
	}
}

func runOne(e experiment, dataDir string, showStats bool, out io.Writer) bool {
	fmt.Fprintf(out, "== %s (%s) ==\n", e.id, e.locus)
	fmt.Fprintf(out, "   %s\n", e.text)
	fmt.Fprintf(out, "   query:    %s\n", e.query)
	k, err := e.setup(dataDir)
	if err != nil {
		fmt.Fprintf(out, "   status:   ERROR (setup: %v)\n", err)
		return false
	}
	res, err := k.ExecStringContext(context.Background(), e.query)
	if err != nil {
		fmt.Fprintf(out, "   status:   ERROR (%v)\n", err)
		return false
	}
	measured := strings.Split(res.String(), "\n")
	printAligned(out, "paper:", e.paper)
	printAligned(out, "measured:", measured)
	if showStats {
		if st := res.Stats; st != nil {
			printAligned(out, "stats:", strings.Split(st.String(), "\n"))
		}
	}
	if e.note != "" {
		fmt.Fprintf(out, "   note:     %s\n", e.note)
	}
	var ok bool
	if e.exact {
		ok = sameModuloVars(e.paper, measured)
	} else {
		// Containment: every paper formula appears among the measured.
		ok = containsModuloVars(measured, e.paper)
	}
	if ok {
		fmt.Fprintf(out, "   status:   MATCH\n")
	} else {
		fmt.Fprintf(out, "   status:   DIFF\n")
	}
	return ok
}

func printAligned(out io.Writer, label string, lines []string) {
	for i, l := range lines {
		if i == 0 {
			fmt.Fprintf(out, "   %-9s %s\n", label, l)
		} else {
			fmt.Fprintf(out, "   %-9s %s\n", "", l)
		}
	}
}

// canonical renames the variables of one formula line in order of first
// occurrence, so `p(X) <- q(X, Z)` equals `p(A) <- q(A, B)`.
func canonical(line string) string {
	var b strings.Builder
	names := make(map[string]int)
	i := 0
	for i < len(line) {
		r := rune(line[i])
		if unicode.IsUpper(r) && (i == 0 || !isWordByte(line[i-1])) {
			j := i
			for j < len(line) && isWordByte(line[j]) {
				j++
			}
			word := line[i:j]
			id, ok := names[word]
			if !ok {
				id = len(names) + 1
				names[word] = id
			}
			fmt.Fprintf(&b, "?%d", id)
			i = j
			continue
		}
		b.WriteByte(line[i])
		i++
	}
	return b.String()
}

func isWordByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_'
}

func sameModuloVars(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	ca := make([]string, len(a))
	cb := make([]string, len(b))
	for i := range a {
		ca[i] = canonical(strings.TrimSpace(a[i]))
		cb[i] = canonical(strings.TrimSpace(b[i]))
	}
	sort.Strings(ca)
	sort.Strings(cb)
	for i := range ca {
		if ca[i] != cb[i] {
			return false
		}
	}
	return true
}

func containsModuloVars(haystack, needles []string) bool {
	set := make(map[string]bool, len(haystack))
	for _, h := range haystack {
		set[canonical(strings.TrimSpace(h))] = true
	}
	for _, n := range needles {
		if !set[canonical(strings.TrimSpace(n))] {
			return false
		}
	}
	return true
}
