// Routes: the paper's routing scenario (introduction, examples five and
// six). A database of airports and flights with the standard recursive
// definition of reachability can answer "list all points reachable from
// A" — but the interesting questions are about the knowledge: does the
// system know how to get from any point to any other point, and is
// reachability symmetric?
//
// Run from the repository root:
//
//	go run ./examples/routes
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

func show(k *kdb.KB, comment, q string) {
	fmt.Printf("%% %s\n?- %s\n", comment, q)
	res, err := k.ExecStringContext(context.Background(), q)
	if err != nil {
		log.Fatalf("%s: %v", q, err)
	}
	out := res.String()
	start := 0
	for i := 0; i <= len(out); i++ {
		if i == len(out) || out[i] == '\n' {
			fmt.Printf("   %s\n", out[start:i])
			start = i + 1
		}
	}
	fmt.Println()
}

func main() {
	k := kdb.New()
	if err := k.LoadFile(findData("routes.kdb")); err != nil {
		log.Fatal(err)
	}

	show(k, "the ordinary data query: list all points reachable from la",
		`retrieve reachable(la, Y).`)

	show(k, `"do you know how to get from any point to any other point?" — a query on the availability of a definition`,
		`describe reachable(X, Y).`)

	show(k, "a knowledge query on the recursive concept (Algorithm 2, §5): when is X reachable, given la reaches Y?",
		`describe reachable(X, Y) where reachable(la, Y).`)

	show(k, "what does a roundtrip take, supposing Y already reaches X?",
		`describe roundtrip(X, Y) where reachable(Y, X).`)

	show(k, "is reachability NECESSARY for a roundtrip? (describe … where not …, §6)",
		`describe roundtrip(X, Y) where not reachable(X, Y).`)

	show(k, "could there be a hub with no departures? (subjectless describe, §6)",
		`describe where hub(X) and flight(X, Y).`)

	show(k, "what follows from a single flight out of la? (wildcard, §6)",
		`describe * where flight(la, B).`)

	// The symmetry question needs a knowledge base whose reachability IS
	// symmetric — an undirected network. The symmetry rule is recursive
	// but not typed with respect to its head, so describe switches to the
	// bounded mode of §5.3.
	fmt.Println("=== an undirected network (symmetry as knowledge) ===")
	fmt.Println()
	u := kdb.New()
	if err := u.LoadString(`
cable(a, b). cable(b, c). cable(c, d).
linked(X, Y) :- cable(X, Y).
linked(X, Y) :- linked(Y, X).
connected(X, Y) :- linked(X, Y).
connected(X, Y) :- linked(X, Z), connected(Z, Y).
`); err != nil {
		log.Fatal(err)
	}
	show(u, `"when x is linked to y, is it guaranteed that y is linked to x?" — the intro's sixth query; <- true means YES`,
		`describe linked(X, Y) where linked(Y, X).`)
	show(u, "and the data-level sanity check",
		`retrieve connected(d, Y).`)
}
