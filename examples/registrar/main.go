// Registrar: the paper's full university knowledge base (§2.2) driven
// through every query form — the twin retrieve/describe statements and
// all five Section 6 extensions. This is the scenario the paper's
// introduction motivates: users who cannot tell whether the information
// they need is data or knowledge ask through one coherent instrument.
//
// Run from the repository root:
//
//	go run ./examples/registrar
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"kdb"
)

func findData(name string) string {
	for _, dir := range []string{"testdata", "../../testdata"} {
		p := filepath.Join(dir, name)
		if _, err := os.Stat(p); err == nil {
			return p
		}
	}
	log.Fatalf("cannot find %s; run from the repository root", name)
	return ""
}

func main() {
	k := kdb.New()
	if err := k.LoadFile(findData("university.kdb")); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded university KB: %d facts, %d rules\n\n", k.FactCount(), len(k.Rules()))

	sections := []struct {
		title   string
		queries []string
	}{
		{"Data queries (§3.1)", []string{
			`retrieve honor(X) where enroll(X, databases).`,
			`retrieve answer(X) where can_ta(X, databases) and student(X, math, V) and V > 3.7.`,
			`retrieve prior(databases, Y).`,
		}},
		{"Knowledge queries (§3.2, §4)", []string{
			`describe honor(X).`,
			`describe can_ta(X, databases) where student(X, math, V) and V > 3.7.`,
			`describe can_ta(X, Y) where honor(X) and teach(susan, Y).`,
			`describe can_ta(X, Y) where complete(X, Y, S, 4).`,
		}},
		{"Recursive knowledge queries (§5)", []string{
			`describe prior(X, Y) where prior(databases, Y).`,
			`describe prior(X, Y) where prior(X, databases).`,
		}},
		{"Extension 1 — necessary hypotheses", []string{
			`describe honor(X) where necessary complete(X, Y, Z, U) and U > 3.3.`,
			`describe honor(X) where necessary student(X, math, V) and V > 3.7.`,
		}},
		{"Extension 2 — is the excluded knowledge necessary?", []string{
			`describe can_ta(X, Y) where not honor(X).`,
		}},
		{"Extension 3 — is the hypothetical situation possible?", []string{
			`describe where student(X, Y, Z) and Z < 3.5 and can_ta(X, U).`,
			`describe where student(X, Y, Z) and Z > 3.8 and can_ta(X, U).`,
		}},
		{"Extension 4 — what follows from honor status?", []string{
			`describe * where honor(X).`,
		}},
		{"Comparing concepts (§6)", []string{
			`compare (describe honor(X)) with (describe deans_list(X)).`,
		}},
	}
	for _, s := range sections {
		fmt.Printf("--- %s ---\n", s.title)
		for _, q := range s.queries {
			res, err := k.ExecStringContext(context.Background(), q)
			if err != nil {
				log.Fatalf("%s: %v", q, err)
			}
			fmt.Printf("?- %s\n", q)
			for _, line := range lines(res.String()) {
				fmt.Printf("   %s\n", line)
			}
		}
		fmt.Println()
	}

	// The answer to a data query may raise a knowledge question — the
	// paper's point about follow-ups. The dean asks who may TA databases,
	// is surprised not to see dan (GPA 4.0!), and asks why.
	fmt.Println("--- A follow-up investigation ---")
	show(k, `retrieve can_ta(X, databases).`)
	show(k, `describe can_ta(dan, databases).`)
	fmt.Println("   (dan completed databases with 3.4 in f88 under tom, who no longer")
	fmt.Println("    teaches it — neither route applies.)")
}

func show(k *kdb.KB, q string) {
	res, err := k.ExecStringContext(context.Background(), q)
	if err != nil {
		log.Fatalf("%s: %v", q, err)
	}
	fmt.Printf("?- %s\n", q)
	for _, line := range lines(res.String()) {
		fmt.Printf("   %s\n", line)
	}
}

func lines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return append(out, s[start:])
}
