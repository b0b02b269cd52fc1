// Package speccat reproduces "Modular Composition and Verification of
// Transaction Processing Protocols Using Category Theory" (Janarthanan,
// 2003) as an executable Go library: a categorical specification framework
// (internal/core) with a Specware-like language and a resolution prover,
// the full 3PC protocol stack it reasons about (internal/tpc and the
// building-block packages), and the reproduction experiments E1..E10
// (internal/experiments, cmd/tpcverify).
//
// See README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for paper-claim vs. measured outcomes.
package speccat
