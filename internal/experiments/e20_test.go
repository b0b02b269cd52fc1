package experiments

import "testing"

// TestE20LockDiscipline pins the static movement: the lockcheck layer is
// clean over real coverage. The dynamic arms are the lock-wait mutants'
// verdicts, pinned by internal/mutant's TestCatalogue.
func TestE20LockDiscipline(t *testing.T) {
	res, findings, err := E20LockDiscipline()
	if err != nil {
		t.Fatal(err)
	}
	if findings != 0 {
		t.Errorf("static lockcheck reported %d findings on this module", findings)
	}
	if len(res.Roots) == 0 || res.Analyzed < 15 || res.AcquireSites < 5 ||
		res.ReleaseSites < 2 || res.RoutedCalls < 5 || res.SyncThenSites < 3 {
		t.Errorf("static coverage collapsed: %+v", res)
	}
}
