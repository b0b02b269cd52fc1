package conformance

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"speccat/internal/explore"
	"speccat/internal/rt"
	"speccat/internal/sim"
	"speccat/internal/tpc"
)

// The tests in this file check, on the engine tpcserve runs, what a
// stand-alone block would be tested for: the coordinator's decision fan-out
// and the backup's re-dissemination are the reliable broadcast,
// Cohort.decide and terminationDecide the consensus, Cohort.backup the
// election, and the KindStateReq round the state vector.

// master is the coordinator's node; crashSweep crashes it.
const master rt.NodeID = 1

func sweepRuns(t *testing.T, protocol string, n int) []*run {
	t.Helper()
	runs, err := crashSweep(protocol, explore.SeedRange(1, n))
	if err != nil {
		t.Fatal(err)
	}
	return runs
}

func faultFree(t *testing.T, seeds []int64, txns int) []*run {
	t.Helper()
	var specs []explore.Schedule
	for _, seed := range seeds {
		specs = append(specs, explore.Schedule{Protocol: explore.Proto3PC, Seed: seed, Txns: txns})
	}
	runs, err := execute(specs)
	if err != nil {
		t.Fatal(err)
	}
	return runs
}

// The explorer goldens of the two commit-protocol mutants: the naive
// timeouts split (a coordinator crash between two prepares) and E15's
// staged witness against unsafe termination (a backup crashed between two
// sends of its decision).
const (
	goldenNaive  = "naive3pc_atomicity.json"
	goldenUnsafe = "unsafe_term_atomicity.json"
)

// goldenRun runs the schedule an explorer golden records.
func goldenRun(t *testing.T, file string) *run {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "explore", "testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	g, err := explore.ParseTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := execute([]explore.Schedule{g.Schedule})
	if err != nil {
		t.Fatal(err)
	}
	return runs[0]
}

// successorRun stages a termination whose natural backup is down, by the
// protocol events of a run of one transaction over all three sites: the
// master crashes at its first prepare of the transaction, so every
// participant waits in w, and the lowest participant crashes one tick
// later; the other two time out and the next lowest gathers.
func successorRun(t *testing.T) *run {
	t.Helper()
	spec := explore.Schedule{Protocol: explore.Proto3PC, Seed: 1, Txns: 1, Horizon: 4000,
		Workload: explore.WorkloadCrossPartition, Spread: 3}
	probe, log, err := explore.RunLogged(spec)
	if err != nil {
		t.Fatal(err)
	}
	var prepare *explore.SendInfo
	var parts []rt.NodeID
	for i, s := range log {
		if s.Seq < probe.Stats.SetupSends {
			continue
		}
		if s.Kind == tpc.KindCommitReq {
			parts = append(parts, s.To)
		}
		if s.Kind == tpc.KindPrepare && prepare == nil {
			prepare = &log[i]
		}
	}
	if prepare == nil || len(parts) != 3 {
		t.Fatalf("staging: the transaction spans %v and prepares at %v, want three sites and a prepare", parts, prepare)
	}
	spec.Faults = []explore.Fault{
		{Kind: explore.FaultCrashAtSend, Seq: prepare.Seq},
		{Kind: explore.FaultCrashAtTime, Site: slices.Min(parts), At: prepare.At + 1},
	}
	runs, err := execute([]explore.Schedule{spec})
	if err != nil {
		t.Fatal(err)
	}
	return runs[0]
}

func evalRow(check func(*run, *tally), runs ...*run) tally {
	return row{check: check}.eval(runs)
}

// learned returns the first decision of txn that site sent or was sent.
func (r *run) learned(name string, site rt.NodeID) (send, bool) {
	l := r.about(name, func(s send) bool { return isDecision(s) && (s.From == site || s.To == site) })
	if len(l) == 0 {
		return send{}, false
	}
	return l[0], true
}

func (r *run) votedNo(name string) bool {
	return slices.ContainsFunc(r.sends[name], func(s send) bool { return s.Kind == tpc.KindVoteNo })
}

// TestFanOutEveryParticipantLearnsDecision: with no fault, every
// participant of every transaction learns, from the coordinator's fan-out,
// the decision the master reported to the client.
func TestFanOutEveryParticipantLearnsDecision(t *testing.T) {
	checked := 0
	for _, r := range faultFree(t, explore.SeedRange(1, 5), 0) {
		reported := map[string]string{}
		for _, e := range r.res.Events {
			var name, d string
			if _, err := fmt.Sscanf(e.What, "decide txn=%s d=%s", &name, &d); err == nil {
				reported[name] = "tpc." + d
			}
		}
		for _, name := range r.txns {
			want, ok := reported[name]
			if !ok {
				continue
			}
			for _, p := range r.parts[name] {
				l, ok := r.learned(name, p)
				if !ok || l.From != master || l.Kind != want {
					t.Errorf("seed %d txn %s: site %d learned %+v, want %s from the coordinator", r.spec.Seed, name, p, l.SendInfo, want)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no reported decision to check")
	}
}

// TestFanOutManyTransactionsAllLearn: with forty transactions in flight on
// one cluster, every site learns the decision of every transaction it
// takes part in, and none is left undecided.
func TestFanOutManyTransactionsAllLearn(t *testing.T) {
	r := faultFree(t, []int64{7}, 40)[0]
	if len(r.txns) < 40 || r.res.Stats.Undecided != 0 {
		t.Fatalf("transactions = %d, undecided = %d", len(r.txns), r.res.Stats.Undecided)
	}
	member, learned := map[rt.NodeID]int{}, map[rt.NodeID]int{}
	for _, name := range r.txns {
		for _, p := range r.parts[name] {
			member[p]++
			if _, ok := r.learned(name, p); ok {
				learned[p]++
			}
		}
	}
	if len(member) < 2 {
		t.Fatalf("sites taking part: %v", member)
	}
	for p, n := range member {
		if learned[p] != n {
			t.Errorf("site %d learned %d of the %d decisions it takes part in", p, learned[p], n)
		}
	}
}

// TestDecisionReachesWaitersWithinBound: with the coordinator crashed,
// every participant waiting on it learns the decision within 3δ+2 of its
// phase timer's deadline — the backup's own timer, armed by the same
// fan-out, fires within δ of the waiter's, and its gathering closes 2δ+2
// later with the decision sent.
func TestDecisionReachesWaitersWithinBound(t *testing.T) {
	waits, bound := 0, 3*delta()+2
	for _, r := range sweepRuns(t, explore.Proto3PC, 60) {
		for _, w := range r.silent() {
			waits++
			l, ok := r.learned(w.txn, w.site)
			if !ok || l.At > w.deadline+bound {
				t.Errorf("seed %d txn %s: site %d's timer ran out at t=%d, learned %+v (bound %d)", r.spec.Seed, w.txn, w.site, w.deadline, l.SendInfo, bound)
			}
		}
	}
	if waits == 0 {
		t.Fatal("no participant waited on a crashed coordinator")
	}
}

// TestAgreebroadCatchesDisseminatorCrash: a backup that crashes between
// the sends of its decision fan-out leaves every correct participant with
// the one outcome, because the served backup persists before it sends;
// Agreebroad holds. Under the unsafe termination mutant (internal/mutant),
// which disseminates before persisting, the restarted backup aborts what a
// peer committed, and Agreebroad convicts it: the row's ablation.
func TestAgreebroadCatchesDisseminatorCrash(t *testing.T) {
	r := goldenRun(t, goldenUnsafe)
	if !slices.ContainsFunc(r.spec.Faults, func(f explore.Fault) bool { return f.Kind == explore.FaultCrashAtSend }) {
		t.Fatalf("%s crashes no sender mid fan-out: %v", goldenUnsafe, r.spec.Faults)
	}
	if got := evalRow(agreebroad, r); got.detail != "" || got.n == 0 {
		t.Errorf("Agreebroad: %d obligations, %q", got.n, got.detail)
	}
}

// TestAgreebroadHoldsUnderCoordinatorCrash: with the coordinator crashed,
// and with a backup crashed mid fan-out, once any correct participant
// learns a decision every correct participant learns the same one — some
// of them from a backup, not the coordinator.
func TestAgreebroadHoldsUnderCoordinatorCrash(t *testing.T) {
	runs := append(sweepRuns(t, explore.Proto3PC, 60), goldenRun(t, goldenNaive), goldenRun(t, goldenUnsafe))
	fromBackup := 0
	for _, r := range runs {
		for _, name := range r.txns {
			var kinds []string
			missing := 0
			for _, p := range r.parts[name] {
				if !r.up(p, r.res.Stats.End) {
					continue
				}
				l, ok := r.learned(name, p)
				if !ok {
					missing++
					continue
				}
				kinds = append(kinds, l.Kind)
				if l.From != master {
					fromBackup++
				}
			}
			if len(kinds) > 0 && (missing > 0 || len(slices.Compact(kinds)) != 1) {
				t.Errorf("%s seed %d txn %s: correct participants learned %v, %d learned nothing", r.spec.Protocol, r.spec.Seed, name, kinds, missing)
			}
		}
	}
	if got := evalRow(agreebroad, runs...); got.detail != "" || got.n == 0 {
		t.Errorf("Agreebroad: %d obligations, %q", got.n, got.detail)
	}
	if fromBackup == 0 {
		t.Error("no correct participant learned its decision from a backup")
	}
}

// TestAgreeconsensusFaultFreeSitesAgree: with no fault, every site that
// decides a transaction decides the same, and the decision is abort exactly
// when some participant voted no.
func TestAgreeconsensusFaultFreeSitesAgree(t *testing.T) {
	runs := faultFree(t, explore.SeedRange(1, 10), 0)
	outcomes := map[string]int{}
	for _, r := range runs {
		for _, name := range r.txns {
			var kinds []string
			for _, s := range r.about(name, isDecision) {
				kinds = append(kinds, s.Kind)
			}
			slices.Sort(kinds)
			kinds = slices.Compact(kinds)
			want := tpc.KindCommit
			if r.votedNo(name) {
				want = tpc.KindAbort
			}
			if !slices.Equal(kinds, []string{want}) {
				t.Errorf("seed %d txn %s: decisions %v, want %s", r.spec.Seed, name, kinds, want)
			}
			outcomes[want]++
		}
	}
	if outcomes[tpc.KindCommit] == 0 || outcomes[tpc.KindAbort] == 0 {
		t.Errorf("outcomes %v: want both commits and aborts", outcomes)
	}
	if got := evalRow(agreeconsensus, runs...); got.detail != "" || got.n == 0 {
		t.Errorf("Agreeconsensus: %d obligations, %q", got.n, got.detail)
	}
}

// TestAgreeconsensusUnderRandomSingleCrash: over thirty seeds, one node —
// the master or a site, drawn at random — crashes at a random instant of
// the submission window. No two sites decide a transaction differently,
// and none commits a transaction a participant voted against.
func TestAgreeconsensusUnderRandomSingleCrash(t *testing.T) {
	var specs []explore.Schedule
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		victim := rt.NodeID(1 + rng.Intn(4))
		at := 501 + sim.Time(rng.Intn(180))
		specs = append(specs, explore.Schedule{Protocol: explore.Proto3PC, Seed: seed, Horizon: 4000,
			Faults: []explore.Fault{{Kind: explore.FaultCrashAtTime, Site: victim, At: at}}})
	}
	runs, err := execute(specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		if got := evalRow(agreeconsensus, r); got.detail != "" || got.n == 0 {
			t.Errorf("seed %d, %v: %d obligations, %q", r.spec.Seed, r.spec.Faults, got.n, got.detail)
		}
		for _, name := range r.txns {
			if r.votedNo(name) && r.committed(name) {
				t.Errorf("seed %d txn %s: committed over a no vote", r.spec.Seed, name)
			}
		}
	}
}

// TestAgreeconsensusCatchesCrashMidProtocol: a site crashing between two
// sends of a fan-out — the coordinator between two prepares, a backup
// between two decisions — leaves no two sites deciding differently on the
// served engine; Agreeconsensus holds on both mutant goldens' schedules. The
// naive timeouts and the unsafe termination mutants (internal/mutant) each
// split their golden's transaction, and Agreeconsensus convicts both: the
// row's ablations.
func TestAgreeconsensusCatchesCrashMidProtocol(t *testing.T) {
	for _, file := range []string{goldenNaive, goldenUnsafe} {
		if got := evalRow(agreeconsensus, goldenRun(t, file)); got.detail != "" || got.n == 0 {
			t.Errorf("%s: %d obligations, %q", file, got.n, got.detail)
		}
	}
}

// TestTimeoutActsWithinPhaseTimeout: a participant whose coordinator has
// crashed sends its first state request no earlier than PhaseTimeout (4δ)
// after the vote or ack that armed its timer and no later than
// PhaseTimeout+δ, and from then on speaks only to fellow participants. 2PC
// never does, and the Timeout and DeclareFailed rows say so; nor do the
// naive timeouts mutant's cohorts (internal/mutant), which fail this test.
func TestTimeoutActsWithinPhaseTimeout(t *testing.T) {
	runs := sweepRuns(t, explore.Proto3PC, 60)
	reqs := 0
	for _, r := range runs {
		for _, name := range r.txns {
			for _, q := range r.about(name, func(s send) bool { return isStateReq(s) && s.From != master }) {
				reqs++
				armed := r.about(name, func(s send) bool {
					return s.From == q.From && s.At < q.At && (s.Kind == tpc.KindVoteYes || s.Kind == tpc.KindAck)
				})
				if len(armed) == 0 || q.At-armed[len(armed)-1].At < 4*delta() {
					t.Errorf("seed %d txn %s: site %d asked for state at t=%d, less than 4δ after arming", r.spec.Seed, name, q.From, q.At)
				}
			}
		}
	}
	waits := 0
	for _, r := range runs {
		waits += len(r.silent())
	}
	twoPC := sweepRuns(t, explore.Proto2PC, 20)
	for _, rw := range []struct {
		name  string
		check func(*run, *tally)
	}{{"Timeout", timeout}, {"DeclareFailed", declareFailed}} {
		if got := evalRow(rw.check, runs...); got.detail != "" || got.n != waits || waits == 0 || reqs == 0 {
			t.Errorf("%s: %d obligations for %d waits and %d requests, %q", rw.name, got.n, waits, reqs, got.detail)
		}
		if got := evalRow(rw.check, twoPC...); got.detail == "" {
			t.Errorf("2pc: %s held over %d obligations", rw.name, got.n)
		}
	}
}

// TestBackupElectedAfterCoordinatorCrash: every transaction whose
// coordinator fell silent elects a backup — each state request goes to or
// comes from the lowest participant up — and Elect/Installed counts one
// obligation per such transaction. The naive timeouts mutant
// (internal/mutant) elects none and fails it.
func TestBackupElectedAfterCoordinatorCrash(t *testing.T) {
	runs := sweepRuns(t, explore.Proto3PC, 60)
	terminated := 0
	for _, r := range runs {
		for _, name := range r.txns {
			if !r.terminated(name) {
				continue
			}
			terminated++
			reqs := r.about(name, isStateReq)
			if len(reqs) == 0 {
				t.Errorf("seed %d txn %s: no backup elected", r.spec.Seed, name)
			}
			for _, q := range reqs {
				if b := r.lowestUp(name, q.At); q.From != b && q.To != b {
					t.Errorf("seed %d txn %s: site %d asked %d, the backup was %d", r.spec.Seed, name, q.From, q.To, b)
				}
			}
		}
	}
	if got := evalRow(elect, runs...); got.detail != "" || got.n != terminated || terminated == 0 {
		t.Errorf("Elect: %d obligations for %d terminated transactions, %q", got.n, terminated, got.detail)
	}
}

// TestBackupIsLowestUpParticipant: every state vector is gathered by the
// lowest participant up at the time, and every other participant's state
// request goes to it; when that backup is down, the next lowest takes over
// — staged by successorRun. A synthetic fan-out by a higher site is
// flagged, and a lone ask of the lowest is no gathering.
func TestBackupIsLowestUpParticipant(t *testing.T) {
	fanOut := func(downAt sim.Time, from rt.NodeID, to ...rt.NodeID) *run {
		r := &run{res: &explore.RunResult{}, sends: map[string][]send{}, parts: map[string][]rt.NodeID{"t": {2, 3, 4}}, txns: []string{"t"},
			life: map[rt.NodeID][]flip{2: {{downAt, false}}}}
		for i, x := range to {
			r.sends["t"] = append(r.sends["t"], send{explore.SendInfo{Seq: uint64(i), From: from, To: x, Kind: tpc.KindStateReq, At: 100}, 0, nil})
		}
		return r
	}
	for i, c := range []struct {
		r             *run
		gathered, bad int
	}{
		{fanOut(200, 3, 2, 4), 1, 1}, // a higher site gathers
		{fanOut(200, 2, 3, 4), 1, 0}, // the lowest gathers
		{fanOut(200, 4, 2), 0, 0},    // an ask of the lowest
		{fanOut(50, 3, 2, 4), 1, 0},  // 2 is down: 3 is the lowest up
		{fanOut(50, 4, 3), 0, 0},     // only 3 and 4 are up: an ask
	} {
		if bad, gathered, _ := misplacedBackups(c.r, "t"); len(bad) != c.bad || gathered != c.gathered {
			t.Errorf("case %d: %d gatherings, flagged %q; want %d gatherings, %d flagged", i, gathered, bad, c.gathered, c.bad)
		}
	}

	runs := append(sweepRuns(t, explore.Proto3PC, 60), goldenRun(t, goldenUnsafe), successorRun(t))
	gathered, successors := 0, 0
	for _, r := range runs {
		for _, name := range r.txns {
			for _, q := range r.about(name, isStateReq) {
				if b := r.lowestUp(name, q.At); q.From != master && q.From != b && q.To != b {
					t.Errorf("seed %d txn %s: site %d asked %d at t=%d, the lowest participant up was %d", r.spec.Seed, name, q.From, q.To, q.At, b)
				}
			}
			bad, g, s := misplacedBackups(r, name)
			for _, b := range bad {
				t.Errorf("seed %d txn %s: %s", r.spec.Seed, name, b)
			}
			gathered, successors = gathered+g, successors+s
		}
	}
	if gathered == 0 || successors == 0 {
		t.Errorf("gatherings = %d, by a successor backup = %d", gathered, successors)
	}
}

// misplacedBackups returns one line per gathering of txn name that a site
// other than the lowest participant up made, the number of gatherings and
// how many of them a successor backup made.
func misplacedBackups(r *run, name string) (bad []string, gathered, successors int) {
	for _, g := range r.gatherings(name) {
		gathered++
		var up []rt.NodeID
		for _, p := range r.parts[name] {
			if r.up(p, g.at) {
				up = append(up, p)
			}
		}
		if len(up) == 0 || g.backup != slices.Min(up) {
			bad = append(bad, fmt.Sprintf("backup %d gathered at t=%d, participants up %v", g.backup, g.at, up))
		}
		if g.backup != r.parts[name][0] {
			successors++
		}
	}
	return bad, gathered, successors
}

// TestGatheredStateVectorRules: a backup's state vector holding both a
// committed and an aborted state is flagged, one holding only committed
// states is not, and every vector the served backups gather is consistent
// with the decisions sent — on the unsafe termination mutant
// (internal/mutant) its golden's is not, which fails this test.
func TestGatheredStateVectorRules(t *testing.T) {
	vector := func(states ...tpc.State) *run {
		r := &run{res: &explore.RunResult{}, sends: map[string][]send{}, parts: map[string][]rt.NodeID{"t": {2, 3, 4}}, txns: []string{"t"}}
		seq := uint64(0)
		add := func(from, to rt.NodeID, kind string, at sim.Time, st tpc.State) {
			seq++
			r.sends["t"] = append(r.sends["t"], send{explore.SendInfo{Seq: seq, From: from, To: to, Kind: kind, At: at}, st, nil})
		}
		add(2, 3, tpc.KindStateReq, 100, 0)
		add(2, 4, tpc.KindStateReq, 100, 0)
		for i, st := range states {
			add(rt.NodeID(3+i), 2, tpc.KindStateResp, 105, st)
		}
		return r
	}
	if got := evalRow(constateinfo, vector(tpc.StateCommitted, tpc.StateAborted)); got.detail == "" || got.n != 1 {
		t.Errorf("commit+abort vector: %d obligations, %q", got.n, got.detail)
	}
	if got := evalRow(constateinfo, vector(tpc.StateCommitted, tpc.StateCommitted)); got.detail != "" || got.n != 1 {
		t.Errorf("commit-only vector: %d obligations, %q", got.n, got.detail)
	}

	runs := append(sweepRuns(t, explore.Proto3PC, 60), goldenRun(t, goldenUnsafe))
	gathered := 0
	for _, r := range runs {
		for _, name := range r.txns {
			gathered += len(r.gatherings(name))
		}
	}
	if got := evalRow(constateinfo, runs...); got.detail != "" || got.n != gathered || gathered == 0 {
		t.Errorf("Constateinfo: %d obligations for %d gathered vectors, %q", got.n, gathered, got.detail)
	}
}
