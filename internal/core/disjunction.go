package core

import (
	"context"
	"fmt"

	"kdb/internal/governor"
	"kdb/internal/obs"
	"kdb/internal/term"
)

// DescribeOr evaluates a describe query with a disjunctive hypothesis
// ψ1 ∨ … ∨ ψn — the first of the research directions Section 6 lists
// ("we are interested in generalizing this formula to allow
// disjunctions"). A formula `p ← φ` is an answer exactly when it is a
// knowledge answer under every disjunct: (ψ1 ∨ ψ2) ⊢ (p ← φ) iff
// ψ1 ⊢ (p ← φ) and ψ2 ⊢ (p ← φ).
//
// Disjuncts whose hypothesis contradicts the knowledge base are skipped
// (⊥ ∨ ψ ≡ ψ); if every disjunct contradicts, the special contradiction
// answer is returned.
//
//kdb:entrypoint
func (d *Describer) DescribeOr(subject term.Atom, disjuncts []term.Formula) (*Answers, error) {
	return d.DescribeOrContext(context.Background(), subject, disjuncts, governor.Limits{})
}

// DescribeOrContext is DescribeOr under a query governor: one governor
// (context, deadline) spans all disjunct searches, while
// limits.MaxDescribeNodes bounds the steps of each disjunct's search
// individually.
func (d *Describer) DescribeOrContext(ctx context.Context, subject term.Atom, disjuncts []term.Formula, limits governor.Limits) (ans *Answers, err error) {
	defer governor.Recover(&err)
	gov, cancel := governor.New(ctx, limits)
	defer cancel()
	return d.describeOr(gov, obs.SpanFromContext(ctx), subject, disjuncts)
}

func (d *Describer) describeOr(gov *governor.Governor, sp *obs.Span, subject term.Atom, disjuncts []term.Formula) (*Answers, error) {
	if len(disjuncts) == 0 {
		return d.describe(gov, sp, subject, nil)
	}
	if len(disjuncts) == 1 {
		return d.describe(gov, sp, subject, disjuncts[0])
	}
	if err := validateDisjuncts(disjuncts); err != nil {
		return nil, err
	}
	userVars := make(map[term.Term]bool)
	for _, v := range subject.Vars(nil) {
		userVars[v] = true
	}
	var full term.Formula
	for _, dis := range disjuncts {
		for _, v := range dis.Vars() {
			userVars[v] = true
		}
		full = append(full, dis...)
	}

	// Evaluate each disjunct independently.
	perDisjunct := make([][]Answer, 0, len(disjuncts))
	contradictions := 0
	truncated := false
	for _, dis := range disjuncts {
		ans, err := d.describe(gov, sp, subject, dis)
		if err != nil {
			return nil, err
		}
		truncated = truncated || ans.Truncated
		if ans.Contradiction {
			contradictions++
			continue // an impossible disjunct never weakens the others
		}
		perDisjunct = append(perDisjunct, ans.Formulas)
	}
	out := &Answers{Subject: subject, Hypothesis: full, Truncated: truncated}
	if contradictions == len(disjuncts) {
		out.Contradiction = true
		return out, nil
	}

	// A candidate (from any disjunct) is an answer when it is valid under
	// every disjunct. Validity under disjunct j holds when one of j's own
	// answers θ-subsumes the candidate: a more general valid rule implies
	// every specialization. (Emitted sets alone would be too syntactic:
	// under a strong hypothesis only the strongest formula is emitted,
	// yet all its weakenings remain valid.)
	var kept []Answer
	seen := make(map[string]bool)
	m := newMatcher(userVars)
	conjs := make([][]conj, len(perDisjunct))
	for i, answers := range perDisjunct {
		conjs[i] = m.prepareAnswers(answers)
	}
	for i, answers := range perDisjunct {
		for k, a := range answers {
			key := a.key(userVars)
			if seen[key] {
				continue
			}
			seen[key] = true
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
