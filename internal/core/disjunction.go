package core

import (
	"context"
	"fmt"
	"time"

	"kdb/internal/governor"
	"kdb/internal/term"
)

// DescribeOrContext evaluates a describe query with a disjunctive
// hypothesis ψ1 ∨ … ∨ ψn — the first of the research directions Section
// 6 lists ("we are interested in generalizing this formula to allow
// disjunctions"). A formula `p ← φ` is an answer exactly when it is a
// knowledge answer under every disjunct: (ψ1 ∨ ψ2) ⊢ (p ← φ) iff
// ψ1 ⊢ (p ← φ) and ψ2 ⊢ (p ← φ).
//
// Disjuncts whose hypothesis contradicts the knowledge base are skipped
// (⊥ ∨ ψ ≡ ψ); if every disjunct contradicts, the special contradiction
// answer is returned.
//
// One query governor (context, deadline) and one MaxDescribeNodes quota
// span all disjunct searches, and the answers' SearchStats sum them.
func (d *Describer) DescribeOrContext(ctx context.Context, subject term.Atom, disjuncts []term.Formula, limits governor.Limits) (ans *Answers, err error) {
	switch len(disjuncts) {
	case 0:
		return d.DescribeContext(ctx, subject, nil, limits)
	case 1:
		return d.DescribeContext(ctx, subject, disjuncts[0], limits)
	}
	defer governor.Recover(&err)
	gov, cancel := governor.New(ctx, limits)
	defer cancel()
	if err := validateDisjuncts(disjuncts); err != nil {
		return nil, err
	}
	userVars := subject.Vars(nil)
	var full term.Formula
	for _, dis := range disjuncts {
		for _, a := range dis {
			userVars = a.Vars(userVars)
		}
		full = append(full, dis...)
	}

	// Evaluate each disjunct independently.
	out := &Answers{Subject: subject, Hypothesis: full}
	perDisjunct := make([][]Answer, 0, len(disjuncts))
	contradictions := 0
	for _, dis := range disjuncts {
		formulas, contradiction, err := d.describe(gov, &out.SearchStats, subject, dis)
		if err != nil {
			return nil, err
		}
		if contradiction {
			contradictions++
			continue // an impossible disjunct never weakens the others
		}
		perDisjunct = append(perDisjunct, formulas)
	}
	if contradictions == len(disjuncts) {
		out.Contradiction = true
		return out, nil
	}
	merge := time.Now()

	// A candidate (from any disjunct) is an answer when it is valid under
	// every disjunct. Validity under disjunct j holds when one of j's own
	// answers θ-subsumes the candidate: a more general valid rule implies
	// every specialization. (Emitted sets alone would be too syntactic:
	// under a strong hypothesis only the strongest formula is emitted,
	// yet all its weakenings remain valid.)
	var kept []Answer
	seen := make(map[string]bool)
	var keys keyer
	m := newMatcher(userVars)
	conjs := make([][]conj, len(perDisjunct))
	for i, answers := range perDisjunct {
		conjs[i] = m.prepareAnswers(answers)
	}
	for i, answers := range perDisjunct {
		for k, a := range answers {
			key := keys.key(a.Head, a.Body, userVars)
			if seen[string(key)] {
				continue
			}
			seen[string(key)] = true
			valid := true
			for j := range perDisjunct {
				if i == j {
					continue
				}
				covered := false
				for l := range conjs[j] {
					if ok, _ := m.subsumes(&conjs[j][l], &conjs[i][k]); ok {
						covered = true
						break
					}
				}
				if !covered {
					valid = false
					break
				}
			}
			if valid {
				// Per-disjunct hypothesis-usage indices would be
				// meaningless after the merge.
				a.UsedHypothesis = nil
				kept = append(kept, a)
			}
		}
	}
	out.Formulas = eliminateRedundant(kept, userVars)
	out.PostWall += time.Since(merge)
	return out, nil
}

// validateDisjuncts rejects qualifier shapes the disjunctive forms do not
// support.
func validateDisjuncts(disjuncts []term.Formula) error {
	for _, d := range disjuncts {
		if len(d) == 0 {
			return fmt.Errorf("core: an empty disjunct makes the qualifier trivially true")
		}
	}
	return nil
}
