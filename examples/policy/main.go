// Policy: the beyond-the-paper features — the research directions the
// paper's Section 6 lists. A financial-aid office encodes its policy as
// rules plus integrity constraints, then interrogates it with
// disjunctive hypotheses, constraint-aware possibility checks, and
// intensional answers that explain every data answer with the knowledge
// behind it.
//
// Run from the repository root:
//
//	go run ./examples/policy
package main

import (
	"context"
	"fmt"
	"log"

	"kdb"
)

const policyKB = `
% ---- applicants ----
applicant(ann,  3.9, 12000).
applicant(bob,  3.2, 52000).
applicant(cora, 3.6, 18000).
applicant(dan,  2.8, 9000).
flagged(bob).

% ---- the aid policy as knowledge ----
% Merit awards need a strong GPA; need awards a low family income.
merit_award(X) :- applicant(X, G, I), G > 3.5.
need_award(X)  :- applicant(X, G, I), I < 20000.
any_award(X)   :- merit_award(X).
any_award(X)   :- need_award(X).

% ---- integrity constraints (the §2.1 second Horn-clause form) ----
% A flagged applicant may never receive an award.
:- any_award(X), flagged(X).
% GPAs above 4.0 cannot exist.
:- applicant(X, G, I), G > 4.

@key applicant/3 1.
`

func show(k *kdb.KB, comment, q string) {
	fmt.Printf("%% %s\n?- %s\n", comment, q)
	res, err := k.ExecStringContext(context.Background(), q)
	if err != nil {
		fmt.Printf("   error: %v\n\n", err)
		return
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
	if err := k.LoadString(policyKB); err != nil {
		log.Fatal(err)
	}

	// The data currently violates a constraint: bob is flagged but his
	// GPA would… actually bob has GPA 3.2 and income 52000, so no award —
	// the data is consistent. Validate it.
	violations, err := k.CheckConstraintsContext(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("constraint check: %d violations\n\n", len(violations))

	show(k, "disjunctive data query (§6 direction): who qualifies by merit OR need?",
		`retrieve any_award(X) where merit_award(X) or need_award(X).`)

	show(k, "disjunctive knowledge query: what is common to both award routes?",
		`describe any_award(X) where merit_award(X) or need_award(X).`)

	show(k, "possibility under constraints: could a flagged applicant get an award?",
		`describe where any_award(X) and flagged(X).`)

	show(k, "possibility under constraints: could an applicant have GPA 4.5?",
		`describe where applicant(X, 4.5, I).`)

	show(k, "but a 3.95 GPA applicant is fine",
		`describe where applicant(X, 3.95, I) and merit_award(X).`)

	// Intensional answers: the data plus the knowledge behind it.
	k.SetIntensional(true)
	show(k, "intensional answering ON: the extension AND the rule that produced it",
		`retrieve merit_award(X).`)

	k.SetIntensional(false)
	show(k, "is need (as opposed to merit) ever NECESSARY for an award?",
		`describe any_award(X) where not merit_award(X).`)
}
