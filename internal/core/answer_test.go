package core

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"kdb/internal/term"
)

func TestAnswerStringWithProvenance(t *testing.T) {
	x := term.Var("X")
	honor := term.NewRule(term.NewAtom("honor", x),
		term.NewAtom("student", x, term.Var("Y"), term.Var("Z")),
		term.NewAtom(">", term.Var("Z"), term.Num(3.7)))
	a := Answer{
		Head: term.NewAtom("honor", x),
		Body: term.Formula{term.NewAtom("student", x, term.Var("Y"), term.Var("Z")),
			term.NewAtom(">", term.Var("Z"), term.Num(3.7))},
		// The same rule applied twice renders one via line (Provenance
		// deduplicates).
		ViaRules: []term.Rule{honor, honor},
	}
	want := "honor(X) <- student(X, Y, Z) and Z > 3.7\n" +
		"   via honor(X) :- student(X, Y, Z), Z > 3.7."
	if got := a.StringWithProvenance(); got != want {
		t.Errorf("got:\n%s\nwant:\n%s", got, want)
	}
	// Without ViaRules it degrades to the plain rendering.
	a.ViaRules = nil
	if got := a.StringWithProvenance(); got != a.String() {
		t.Errorf("no-provenance rendering = %q", got)
	}
}

// keyedAnswers makes a group of answers for goal(X) over the user's X and
// U: a random one and variants of it that must share its key — body
// shuffled, non-user variables renamed apart, an atom repeated — or that
// may not — an atom dropped, a constant or a variable changed.
func (g *generator) keyedAnswers(feat genFeatures) []Answer {
	nonUser := []term.Term{term.Var("A"), term.Var("B"), term.Var("C_3")}
	pool := append([]term.Term{genX, term.Var("U"), term.Str("a b"), term.Str("a"), term.Sym("a"), term.Num(1), term.Num(2)}, nonUser...)
	a := Answer{Head: term.NewAtom("goal", genX)}
	for n := g.r.Intn(5); n > 0; n-- {
		switch {
		case g.chance(25):
			a.Body = append(a.Body, term.NewAtom(g.name(genOps), g.pick(pool), g.pick(pool)))
		case g.chance(15) && len(a.Body) > 0:
			a.Body = append(a.Body, a.Body[g.r.Intn(len(a.Body))])
		default:
			pred := g.name(genEDB)
			args := make([]term.Term, genArity[pred])
			for i := range args {
				args[i] = g.pick(pool)
			}
			a.Body = append(a.Body, term.Atom{Pred: pred, Args: args})
		}
	}
	noteKeyShapes(a, feat)
	variants := []Answer{a}
	for n := 2 + g.r.Intn(4); n > 0; n-- {
		v := Answer{Head: a.Head, Body: slices.Clone(a.Body)}
		g.r.Shuffle(len(v.Body), func(i, j int) { v.Body[i], v.Body[j] = v.Body[j], v.Body[i] })
		switch g.r.Intn(5) {
		case 0: // a renaming of the non-user variables apart
			perm := g.r.Perm(len(nonUser))
			sub := term.NewSubst(len(nonUser))
			for i, p := range perm {
				sub[nonUser[i]] = term.Var(nonUser[p].Name() + "_9")
			}
			v.Body = sub.ApplyFormula(v.Body)
		case 1:
			if len(v.Body) > 0 {
				v.Body = append(v.Body, v.Body[g.r.Intn(len(v.Body))])
			}
		case 2:
			if len(v.Body) > 0 {
				v.Body = dropAt(v.Body, g.r.Intn(len(v.Body)))
			}
		case 3:
			if len(v.Body) > 0 && len(v.Body[0].Args) > 0 {
				at := v.Body[0]
				at.Args = slices.Clone(at.Args)
				at.Args[g.r.Intn(len(at.Args))] = g.pick(pool)
				v.Body[0] = at
			}
		}
		variants = append(variants, v)
	}
	return variants
}

// noteKeyShapes counts the shapes the key must canonicalize.
func noteKeyShapes(a Answer, feat genFeatures) {
	seen := make(map[string]bool)
	occurs := make(map[term.Term]int)
	for _, at := range a.Body {
		if seen[at.Key()] {
			feat["repeated atom"]++
		}
		seen[at.Key()] = true
		if term.IsComparison(at) {
			feat["comparison"]++
		}
		for _, t := range at.Args {
			switch {
			case t.Kind() == term.KindString:
				feat["string constant"]++
			case t.IsVar() && t != genX && t != term.Var("U"):
				occurs[t]++
			}
		}
	}
	for _, n := range occurs {
		if n > 1 {
			feat["shared non-user variable"]++
		}
	}
}

// TestAnswerKeyMatchesOracle: two answers share a key built in the
// reused buffer exactly when they share the key the seed built from
// canonicalized formulas and a sorted set of atom keys.
func TestAnswerKeyMatchesOracle(t *testing.T) {
	userVars := map[term.Term]bool{genX: true, term.Var("U"): true}
	g := &generator{r: rand.New(rand.NewSource(1)), feat: make(genFeatures)}
	rounds := 2000
	if testing.Short() {
		rounds = 300
	}
	var keys keyer
	equal, unequal := 0, 0
	for round := 0; round < rounds; round++ {
		answers := g.keyedAnswers(g.feat)
		got := make([]string, len(answers))
		for i, a := range answers {
			got[i] = string(keys.key(a.Head, a.Body, userVars))
		}
		for i := range answers {
			for j := range answers {
				want := answers[i].key(userVars) == answers[j].key(userVars)
				if (got[i] == got[j]) != want {
					t.Fatalf("%v and %v: the seed's keys equal %v, the buffer's keys equal %v", answers[i], answers[j], want, !want)
				}
				if want {
					equal++
				} else {
					unequal++
				}
			}
		}
	}
	for _, want := range []string{"repeated atom", "comparison", "string constant", "shared non-user variable"} {
		if g.feat[want] == 0 {
			t.Errorf("no generated answer had: %s", want)
		}
	}
	if equal < 4*rounds || unequal < 4*rounds {
		t.Errorf("%d equal and %d unequal ordered pairs in %d rounds: the generator has drifted", equal, unequal, rounds)
	}
	t.Logf("%d equal and %d unequal ordered pairs; shapes %v", equal, unequal, g.feat)
}

// TestAnswersStringMatchesJoin: rendering answers into one buffer gives
// the bytes of joining each answer's head and body strings.
func TestAnswersStringMatchesJoin(t *testing.T) {
	g := &generator{r: rand.New(rand.NewSource(2)), feat: make(genFeatures)}
	for round := 0; round < 500; round++ {
		as := &Answers{Formulas: g.keyedAnswers(g.feat), Contradiction: g.chance(2)}
		if g.chance(5) {
			as.Formulas = nil
		}
		lines := make([]string, len(as.Formulas))
		for i, a := range as.Formulas {
			body := " <- " + a.Body.String()
			if len(a.Body) == 0 {
				body = " <- true"
			}
			lines[i] = a.Head.String() + body
			if got := a.String(); got != lines[i] {
				t.Fatalf("answer renders %q, joined %q", got, lines[i])
			}
		}
		want := strings.Join(lines, "\n")
		switch {
		case as.Contradiction:
			want = "false (the hypothesis contradicts the knowledge base)"
		case len(lines) == 0:
			want = "no answer"
		}
		if got := as.String(); got != want {
			t.Fatalf("answers render\n%s\njoined\n%s", got, want)
		}
	}
}
