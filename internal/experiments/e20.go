package experiments

import (
	"speccat/internal/analysis/lockcheck"
	"speccat/internal/mutant"
)

// E20 — lock discipline, static and witnessed. The lockcheck layer walks
// every locking.Manager call site reachable from the protocol handlers
// and store operations, enforcing two-phase growth, release-on-every-path,
// no acquisition past a durability wait or before the wal decision record,
// and canonical ascending shard order for cross-shard acquisitions — the
// order whose absence per-shard deadlock detectors cannot compensate for,
// because a waits-for cycle split across two managers is invisible to
// both. E20 runs in two movements: (1) the static analysis over this
// module — zero findings (reasoned suppressions included), with pinned
// coverage so the clean verdict is non-vacuous; (2) the dynamic twin of
// the lock-order rule (E20Arms) — the lock-wait mutant, whose sites wait
// for a contended lock instead of failing the work, run through the
// progress gate over the opposed workload (transaction pairs touching the
// same cross-shard keys in opposite orders): killed with two shard-local
// managers per site, spared with one (its detector sees the cycle and
// aborts a victim), and spared with two once its ops are sorted by shard.

// E20LockDiscipline runs movement 1: lockcheck over ./internal/..., its
// coverage report (a clean run over zero lock events would prove nothing)
// and its finding count — zero on a lock-discipline-clean tree.
func E20LockDiscipline() (*lockcheck.Report, int, error) {
	pkgs, err := loadInternal()
	if err != nil {
		return nil, 0, err
	}
	rep, diags := lockcheck.Run(pkgs)
	return rep, len(diags), nil
}

// E20Arms runs movement 2: the lock-wait mutant's verdicts on the
// two-shard and one-shard progress gates, then the canonical-order
// mutant's on the two-shard gate, each with its control. The first
// verdict, the two-shard kill, is the lock-order rule's witness; its
// evidence is the gate's tally over seeds 1–3.
func E20Arms() ([]mutant.Verdict, error) {
	arms, err := mutant.Judge("lock-wait")
	if err != nil {
		return nil, err
	}
	canonical, err := mutant.Judge("lock-wait, canonical order")
	return append(arms, canonical...), err
}
