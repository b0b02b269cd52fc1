package conformance

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"speccat/internal/explore"
	"speccat/internal/thesis"
	"speccat/internal/tpc"
)

// report runs CheckAll once per test binary over the sweep E11 prints.
var (
	reportOnce sync.Once
	reportRows []Result
	reportErr  error
)

func report(t *testing.T) []Result {
	t.Helper()
	reportOnce.Do(func() { reportRows, reportErr = CheckAll(explore.SeedRange(1, 60)) })
	if reportErr != nil {
		t.Fatal(reportErr)
	}
	return reportRows
}

// TestCheckAllAxiomsConform is E11's acceptance: every observed row judges
// a non-zero number of obligations on full-stack 3PC runs and conforms,
// every ablation a row names is caught with a clean control, and exactly
// the axioms nothing served discharges are reported unobserved.
func TestCheckAllAxiomsConform(t *testing.T) {
	var observed, unobserved []string
	for _, r := range report(t) {
		if r.Unobserved != "" {
			unobserved = append(unobserved, r.Axioms...)
			continue
		}
		observed = append(observed, r.Axioms...)
		if !r.Holds {
			t.Errorf("%v violated by %s: %s", r.Axioms, r.Code, r.Detail)
		}
		if r.Obligations == 0 {
			t.Errorf("%v checked zero obligations", r.Axioms)
		}
		if len(r.Proofs) == 0 {
			t.Errorf("%v: no proof uses it", r.Axioms)
		}
		for _, a := range r.Ablations {
			if !a.Caught || !a.ControlClean {
				t.Errorf("%v against %s: caught %v, control clean %v", r.Axioms, a.Name, a.Caught, a.ControlClean)
			}
		}
	}
	if len(observed) != 12 {
		t.Errorf("observed axioms = %v, want 12", observed)
	}
	slices.Sort(unobserved)
	if want := []string{"Checkpoint", "InstallFromDecision", "ProposalShared", "Recover", "RestoreAx"}; !slices.Equal(unobserved, want) {
		t.Errorf("unobserved = %v, want %v", unobserved, want)
	}
}

// TestUsingListsAreCovered pins the report to the corpus: the observed and
// the unobserved axioms together are exactly the union of the prove
// statements' using lists, each once. A new `prove … using X` fails here
// until X is observed or given a reason.
func TestUsingListsAreCovered(t *testing.T) {
	obs, err := thesis.Obligations()
	if err != nil {
		t.Fatal(err)
	}
	var using []string
	for _, ob := range obs {
		using = append(using, ob.Using...)
	}
	slices.Sort(using)
	using = slices.Compact(using)
	var reported []string
	for _, r := range report(t) {
		reported = append(reported, r.Axioms...)
	}
	slices.Sort(reported)
	if !slices.Equal(reported, using) {
		t.Errorf("report covers %v, the corpus using lists name %v", reported, using)
	}
}

// TestAgreebroadObligationCountScales pins what an Agreebroad obligation
// is: on a fault-free run every participant of every transaction is
// correct and learns the outcome, so the count is the number of
// (transaction, participant) pairs.
func TestAgreebroadObligationCountScales(t *testing.T) {
	for _, txns := range []int{4, 12} {
		runs, err := execute([]explore.Schedule{{Protocol: explore.Proto3PC, Seed: 3, Txns: txns}})
		if err != nil {
			t.Fatal(err)
		}
		r := runs[0]
		want := 0
		for _, name := range r.txns {
			want += len(r.parts[name])
		}
		var c tally
		agreebroad(r, &c)
		if c.n != want || c.detail != "" || want < 2*txns {
			t.Errorf("txns=%d: obligations = %d (%q), want %d", txns, c.n, c.detail, want)
		}
	}
}

// TestStorevaluesCountsCommittedOnly pins that Storevalues counts the
// writes of committed transactions only, with the commits read off the
// master's own outcome events rather than the wire.
func TestStorevaluesCountsCommittedOnly(t *testing.T) {
	runs, err := execute([]explore.Schedule{{Protocol: explore.Proto3PC, Seed: 5, Txns: 20}})
	if err != nil {
		t.Fatal(err)
	}
	r := runs[0]
	committed := map[string]bool{}
	for _, e := range r.res.Events {
		var name string
		if _, err := fmt.Sscanf(e.What, "decide txn=%s d=commit", &name); err == nil {
			committed[name] = true
		}
	}
	want, all := 0, 0
	for name, sends := range r.sends {
		for _, s := range sends {
			for _, op := range s.ops {
				if op.Mutates() {
					all++
					if committed[name] {
						want++
					}
				}
			}
		}
	}
	var c tally
	storevalues(r, &c)
	if c.n != want || want == 0 || want == all {
		t.Errorf("obligations = %d, want %d committed of %d writes", c.n, want, all)
	}
}

// TestTerminationRowsAreNonVacuous pins that the coordinator-crash sweep
// really drives the termination protocol, and that the rows judge what
// the protocol sent: every state request of the sweep is an obligation of
// Globprocstateinfo.
func TestTerminationRowsAreNonVacuous(t *testing.T) {
	runs, err := execute(crashSweep(explore.Proto3PC, explore.SeedRange(1, 20)))
	if err != nil {
		t.Fatal(err)
	}
	reqs, waits := 0, 0
	for _, r := range runs {
		waits += len(r.silent())
		for _, sends := range r.sends {
			for _, s := range sends {
				if s.Kind == tpc.KindStateReq {
					reqs++
				}
			}
		}
	}
	var c tally
	for _, r := range runs {
		stateinfo(r, &c)
	}
	if waits == 0 || reqs == 0 || c.n != reqs || c.detail != "" {
		t.Errorf("waits=%d requests=%d Globprocstateinfo obligations=%d (%q)", waits, reqs, c.n, c.detail)
	}
}
