package commcheck

import (
	"fmt"
	"sort"

	"speccat/internal/core/provesched"
	"speccat/internal/core/speclang"
)

// DerivedMatrix is the compatibility relation re-derived from a
// commutativity spec: the set of class pairs backed by a
// prover-discharged Safe theorem, plus how many obligations were
// discharged deriving it.
type DerivedMatrix struct {
	// Compatible[a][b] reports a discharged commutativity argument for
	// the ordered pair; the relation is symmetric by construction.
	Compatible map[string]map[string]bool
	// Proofs counts the discharged prove statements.
	Proofs int
	// Classes are the class constants declared in the spec, sorted.
	Classes []string
}

// Derive elaborates a commutativity spec, discharges its prove statements
// and returns the compatibility relation it supports. classes are the
// commutativity classes the caller knows about (from //comm:mode
// annotations); the derived relation marks (a, b) compatible exactly when
// the spec contains a prove statement for theorem Safe<a><b> (or
// Safe<b><a>) — and a theorem the prover cannot discharge fails the
// derivation rather than silently weakening the matrix.
func Derive(src string, classes []string) (*DerivedMatrix, error) {
	env, results, err := (&provesched.Scheduler{}).Verify(src, speclang.Options{})
	if err != nil {
		return nil, fmt.Errorf("commcheck: discharge spec obligations: %w", err)
	}
	d := &DerivedMatrix{Compatible: map[string]map[string]bool{}, Proofs: len(results)}
	declared := map[string]bool{}
	proved := map[string]bool{}
	for _, r := range results {
		proved[r.Obligation.Theorem] = true
	}
	for _, name := range env.Names() {
		if s, err := env.Spec(name); err == nil {
			for _, op := range s.Sig.Ops {
				if op.Arity() == 0 {
					declared[op.Name] = true
				}
			}
		}
	}
	for c := range declared {
		d.Classes = append(d.Classes, c)
	}
	sort.Strings(d.Classes)
	for _, c := range classes {
		if !declared[c] {
			return nil, fmt.Errorf("commcheck: class %s is not declared as a constant in the spec", c)
		}
	}
	for _, a := range classes {
		for _, b := range classes {
			if proved["Safe"+a+b] || proved["Safe"+b+a] {
				if d.Compatible[a] == nil {
					d.Compatible[a] = map[string]bool{}
				}
				d.Compatible[a][b] = true
			}
		}
	}
	return d, nil
}

// protects reports whether acquiring mode class cm is safe for an
// operation of class c: every class the lock manager would admit
// concurrently under cm must commute with c. cm == c is trivially safe
// when the derived matrix is consistent; a strictly stronger mode is safe
// but overlocked (see RuleOverlock).
func (d *DerivedMatrix) protects(cm, c string, classes []string) bool {
	for _, other := range classes {
		if d.Compatible[cm][other] && !d.Compatible[c][other] {
			return false
		}
	}
	return true
}
