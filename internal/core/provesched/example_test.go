package provesched_test

import (
	"fmt"

	"speccat/internal/core/provesched"
	"speccat/internal/core/speclang"
)

// ExampleScheduler_Verify shows the complete workflow: define two
// specifications, compose them with a colimit, and prove a theorem of the
// composite.
func ExampleScheduler_Verify() {
	env, _, err := (&provesched.Scheduler{}).Verify(`
A = spec
sort S
op P : S -> Boolean
op Q : S -> Boolean
axiom pq is fa(x:S) P(x) => Q(x)
endspec
B = spec
import A
op R : S -> Boolean
axiom qr is fa(x:S) Q(x) => R(x)
theorem pr is fa(x:S) P(x) => R(x)
endspec
D = diagram {a ++> A, b ++> B, i: a->b ++> morphism A -> B {}}
C = colimit D
proof = prove pr in C using pq qr
`, speclang.Options{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	c, _ := env.Spec("C")
	v, _ := env.Lookup("proof")
	fmt.Printf("composite %s has %d axioms; theorem proved in %d steps\n",
		c.Name, len(c.Axioms), v.Proof.Stats.ProofLength)
	// Output: composite C has 2 axioms; theorem proved in 7 steps
}
