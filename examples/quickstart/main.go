// Command quickstart is the smallest end-to-end tour of the library: write
// two specifications in the Specware-like language, link them with a
// morphism, compose them with a colimit, and prove a theorem of the
// composite with the resolution prover — the paper's Chapter 2 workflow in
// thirty lines of specification text.
package main

import (
	"fmt"
	"os"

	"speccat/internal/core/provesched"
	"speccat/internal/core/speclang"
)

const source = `
% A tiny sender/receiver protocol stack.
CHANNEL = spec
sort Node
sort Msg
op Sent : Node*Msg -> Boolean
op Recv : Node*Msg -> Boolean
axiom Reliable is fa(n:Node, m:Msg) Sent(n, m) => Recv(n, m)
endspec

% A service that acknowledges everything it receives.
ACKER = spec
import CHANNEL
op Acked : Node*Msg -> Boolean
axiom Acks is fa(n:Node, m:Msg) Recv(n, m) => Acked(n, m)
theorem EndToEnd is fa(n:Node, m:Msg) Sent(n, m) => Acked(n, m)
endspec

% Compose them: the colimit is the shared union over the linking morphism.
D = diagram {
a ++> CHANNEL,
b ++> ACKER,
i: a->b ++> morphism CHANNEL -> ACKER {Sent ++> Sent, Recv ++> Recv}}

STACK = colimit D

% Prove the global property from the component axioms.
p = prove EndToEnd in STACK using Reliable Acks
`

func main() {
	env, _, err := (&provesched.Scheduler{}).Verify(source, speclang.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}

	stack, err := env.Spec("STACK")
	if err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
	fmt.Println("Composed specification:")
	fmt.Println(stack)
	fmt.Println()

	proof, _ := env.Lookup("p")
	fmt.Printf("Theorem EndToEnd proved in %d steps (%d clauses generated):\n",
		proof.Proof.Stats.ProofLength, proof.Proof.Stats.Generated)
	for _, step := range proof.Proof.Proof {
		fmt.Println(" ", step)
	}
}
