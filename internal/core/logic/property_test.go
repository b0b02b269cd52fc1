package logic_test

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"speccat/internal/core/logic"
	"speccat/internal/core/logic/logictest"
)

// termGen adapts logictest.Term for testing/quick.
type termGen struct{ T *logic.Term }

// Generate implements quick.Generator.
func (termGen) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(termGen{T: logictest.Term(r, 3, logictest.WellSorted)})
}

func TestTermCloneEqualProperty(t *testing.T) {
	prop := func(g termGen) bool {
		return g.T.Equal(g.T.Clone())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTermSizePositiveProperty(t *testing.T) {
	prop := func(g termGen) bool {
		return g.T.Size() >= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: whenever Unify succeeds, the result is a genuine unifier.
func TestUnifySoundProperty(t *testing.T) {
	prop := func(ga, gb termGen) bool {
		s, ok := logic.Unify(ga.T, gb.T, nil)
		if !ok {
			return true
		}
		return s.Apply(ga.T).Equal(s.Apply(gb.T))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: unification is symmetric in success.
func TestUnifySymmetricProperty(t *testing.T) {
	prop := func(ga, gb termGen) bool {
		_, ok1 := logic.Unify(ga.T, gb.T, nil)
		_, ok2 := logic.Unify(gb.T, ga.T, nil)
		return ok1 == ok2
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: a term always unifies with itself, and with a fresh variable.
func TestUnifyReflexiveProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		term := logictest.Term(r, 3, logictest.WellSorted)
		if _, ok := logic.Unify(term, term.Clone(), nil); !ok {
			t.Fatalf("term %s does not unify with itself", term)
		}
		fresh := logic.Var("fresh_w", term.Sort)
		if term.ContainsVar("fresh_w") {
			continue
		}
		if _, ok := logic.Unify(fresh, term, nil); !ok {
			t.Fatalf("fresh variable does not unify with %s", term)
		}
	}
}
