package experiments

import "speccat/internal/analysis/lockcheck"

// E20 — lock discipline. The lockcheck layer walks every locking.Manager
// call site reachable from the protocol handlers and store operations,
// enforcing two-phase growth, release on every path, no acquisition past a
// durability wait and no release before the wal decision record. E20 runs
// it over this module: zero findings (reasoned suppressions included), with
// pinned coverage so the clean verdict is non-vacuous. Acquisition order
// needs no rule: the lock manager is no-wait, so a conflicting request is
// refused, the site fails its work, and no waits-for cycle can form —
// explore's opposed-workload progress tests pin that on the served engine.

// E20LockDiscipline runs lockcheck over ./internal/... and returns its
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
