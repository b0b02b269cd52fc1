// Package conformance observes, on the engine tpcserve runs, the axioms
// the compositional proofs consume — the step the thesis leaves as future
// work. Each axiom of a corpus `using` list gets a row: a trace property
// checked on full-stack explore runs whose master crashes inside the
// submission window, so the cohorts' termination protocol runs — or the
// reason no served code discharges it. A row reads each run's send log,
// payloads included, and the explorer's oracles. A row also runs against
// the defects it must catch, each beside a clean control: the crash sweep
// under 2PC beside the same sweep under 3PC, or a mutant of internal/mutant
// judged by the row's conformance test on a mutated and an unmutated copy
// of the module.
package conformance

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"speccat/internal/core/provesched"
	"speccat/internal/explore"
	"speccat/internal/mutant"
	"speccat/internal/rt"
	"speccat/internal/sim"
	"speccat/internal/simnet"
	"speccat/internal/thesis"
	"speccat/internal/tpc"
	"speccat/internal/txn"
)

// Result is one row of the report: the corpus axioms, the prove statements
// naming them and the served code discharging them; the obligations judged
// and whether all held (Detail is the first that did not); a measured Note;
// the ablations run. Unobserved, when set, says why no code discharges them.
type Result struct {
	Axioms, Proofs []string
	Code           string
	Obligations    int
	Holds          bool
	Detail, Note   string
	Ablations      []Ablation
	Unobserved     string
}

// Ablation is one seeded defect a row must catch: Caught reports the row
// failed on the ablated runs, ControlClean that it held on their control.
type Ablation struct {
	Name                 string
	Caught, ControlClean bool
}

// String renders the row, then its note and ablations on indented lines.
func (r Result) String() string {
	head := fmt.Sprintf("  %-40s ", fmt.Sprintf("%s (%s)", strings.Join(r.Axioms, ", "), strings.Join(r.Proofs, " ")))
	if r.Unobserved != "" {
		return head + "unobserved: " + r.Unobserved
	}
	verdict := "conforms"
	if !r.Holds {
		verdict = "VIOLATED: " + r.Detail
	}
	lines := []string{fmt.Sprintf("%s%5d obligations, %s — %s", head, r.Obligations, verdict, r.Code), r.Note}
	if len(r.Ablations) == 0 {
		lines = append(lines, "ablation: none in the tree")
	}
	for _, a := range r.Ablations {
		lines = append(lines, fmt.Sprintf("ablation %s: caught %v, control clean %v", a.Name, a.Caught, a.ControlClean))
	}
	return strings.Join(slices.DeleteFunc(lines, func(l string) bool { return l == "" }), "\n      ")
}

// ablate2PC names the 2PC crash sweep; every other ablation a row names is
// a mutant of internal/mutant, judged by the row's gate.
const ablate2PC = "2pc coordinator crashes"

// row is one axiom group: the trace property checking it, or why none can,
// and the test of this package that judges its mutants.
type row struct {
	axioms     []string
	code       string
	check      func(r *run, c *tally)
	gate       string
	ablations  []string
	unobserved string
}

func rows() []row {
	const naive, unsafe = "naive timeouts", "unsafe termination"
	termination := []string{ablate2PC, naive}
	return []row{
		{[]string{"Agreeconsensus"}, "tpc Cohort.decide, terminationDecide", agreeconsensus, "TestAgreeconsensusCatchesCrashMidProtocol", []string{naive, unsafe}, ""},
		{[]string{"Storevalues"}, "kvstore and wal under txn.Site", storevalues, "", nil, ""},
		{[]string{"Readlock", "Writelock"}, "locking under txn Site.vote", locks, "TestLockRowHoldsOnWitnessShape", []string{"underlock"}, ""},
		{[]string{"Agreebroad"}, "tpc Coordinator.commit/abort fan-out, terminationDecide re-dissemination", agreebroad, "TestAgreebroadCatchesDisseminatorCrash", []string{unsafe}, ""},
		{[]string{"Timeout"}, "tpc cohort phase timers (onCommitReq, onPrepare)", timeout, "TestTimeoutActsWithinPhaseTimeout", termination, ""},
		{[]string{"DeclareFailed", "CoordFailure"}, "tpc Cohort.onCoordinatorSilent → startTermination", declareFailed, "TestTimeoutActsWithinPhaseTimeout", termination, ""},
		{[]string{"Elect", "Installed"}, "tpc Cohort.backup, terminationDecide", elect, "TestBackupElectedAfterCoordinatorCrash", termination, ""},
		{[]string{"Globprocstateinfo"}, "tpc Cohort.HandleMessage's KindStateReq arm", stateinfo, "TestTerminationRowsAreNonVacuous", termination, ""},
		{[]string{"Constateinfo"}, "tpc Cohort.terminationDecide", constateinfo, "TestGatheredStateVectorRules", []string{unsafe}, ""},
		{axioms: []string{"Checkpoint", "Recover", "RestoreAx"}, unobserved: "the served path takes no checkpoint; a restart replays the whole journal"},
		{axioms: []string{"InstallFromDecision", "ProposalShared"}, unobserved: "p5's group-membership service has no executable"},
	}
}

// CheckAll observes every row on the 3PC crash sweep of seeds, then runs
// each row against its ablations: the 2PC sweep of the same seeds, and the
// mutants the rows name, judged on the rows' gates in the module the
// working directory is in.
func CheckAll(seeds []int64) ([]Result, error) {
	sweep, err := crashSweep(explore.Proto3PC, seeds)
	if err != nil {
		return nil, err
	}
	twoPC, err := crashSweep(explore.Proto2PC, seeds)
	if err != nil {
		return nil, err
	}
	var mutants, gates []string
	for _, rw := range rows() {
		for _, a := range rw.ablations {
			if a != ablate2PC && !slices.Contains(mutants, a) {
				mutants = append(mutants, a)
			}
		}
		if rw.gate != "" && !slices.Contains(gates, rw.gate) {
			gates = append(gates, rw.gate)
		}
	}
	verdicts, err := mutant.Judge(mutants, gates...)
	if err != nil {
		return nil, err
	}
	proofs, err := thesis.Obligations()
	if err != nil {
		return nil, err
	}
	var out []Result
	for _, rw := range rows() {
		if rw.check == nil {
			out = append(out, Result{Axioms: rw.axioms, Proofs: proofsNaming(proofs, rw.axioms), Unobserved: rw.unobserved})
			continue
		}
		c := rw.eval(sweep)
		res := Result{Axioms: rw.axioms, Proofs: proofsNaming(proofs, rw.axioms), Code: rw.code,
			Obligations: c.n, Holds: c.detail == "", Detail: c.detail, Note: c.note}
		for _, a := range rw.ablations {
			ablation := Ablation{Name: a + " mutant"}
			if i := slices.IndexFunc(verdicts, func(v mutant.Verdict) bool { return v.Mutant == a && v.Gate.Test == rw.gate }); i >= 0 {
				ablation.Caught, ablation.ControlClean = verdicts[i].Killed, verdicts[i].ControlPassed
			}
			if a == ablate2PC { // its control is the 3PC sweep the row was observed on
				ablation = Ablation{a, rw.eval(twoPC).detail != "", c.detail == ""}
			}
			res.Ablations = append(res.Ablations, ablation)
		}
		out = append(out, res)
	}
	return out, nil
}

// proofsNaming lists, sorted, the prove statements naming any of axioms.
func proofsNaming(proofs []provesched.Obligation, axioms []string) []string {
	var out []string
	for _, ob := range proofs {
		if slices.ContainsFunc(axioms, func(ax string) bool { return slices.Contains(ob.Using, ax) }) {
			out = append(out, ob.Name)
		}
	}
	slices.Sort(out)
	return out
}

// crashSweep runs, per seed, the default-shape workload with the master
// (node 1) crashed for good one tick after its (seed mod 30)th send of the
// workload in the seed's fault-free run — whole fan-outs, in a phase that
// varies with the seed — to t = 4000.
func crashSweep(protocol string, seeds []int64) ([]*run, error) {
	var specs []explore.Schedule
	for _, seed := range seeds {
		spec := explore.Schedule{Protocol: protocol, Seed: seed, Horizon: 4000}
		probe, log, err := explore.RunLogged(spec)
		if err != nil {
			return nil, err
		}
		log = slices.DeleteFunc(log, func(s explore.SendInfo) bool { return s.Seq < probe.Stats.SetupSends || s.From != 1 })
		if len(log) == 0 {
			return nil, fmt.Errorf("conformance: %s seed %d: the master sent nothing to crash after", protocol, seed)
		}
		spec.Faults = []explore.Fault{{Kind: explore.FaultCrashAtTime, Site: 1, At: log[int(seed)%min(len(log), 30)].At + 1}}
		specs = append(specs, spec)
	}
	return execute(specs)
}

// tally accumulates one row's obligations over a set of runs.
type tally struct {
	n            int
	detail, note string
}

// check counts one obligation, keeping the first that failed.
func (c *tally) check(ok bool, r *run, format string, args ...any) {
	c.n++
	if !ok && c.detail == "" {
		c.detail = fmt.Sprintf("%s seed %d: ", r.spec.Protocol, r.spec.Seed) + fmt.Sprintf(format, args...)
	}
}

// judged counts n obligations the named explorer oracle decided on r —
// or, when the oracle convicted r, one failed obligation in their place.
func (c *tally) judged(r *run, n int, oracle string) {
	for _, v := range r.res.Violations {
		if v.Oracle == oracle {
			c.check(false, r, "%s oracle: txn %s site %d: %s", oracle, v.Txn, v.Site, v.Detail)
			return
		}
	}
	c.n += n
}

func (rw row) eval(runs []*run) tally {
	var c tally
	for _, r := range runs {
		rw.check(r, &c)
	}
	return c
}

// run is one executed schedule as the rows see it: the explorer's result,
// the send log per transaction, the transactions in commit-request order
// with their participants, and each node's crashes and recoveries.
type run struct {
	spec  explore.Schedule
	res   *explore.RunResult
	sends map[string][]send
	txns  []string
	parts map[string][]rt.NodeID
	life  map[rt.NodeID][]flip
}

type flip struct {
	at sim.Time
	up bool
}

// send is one logged send with its payload decoded.
type send struct {
	explore.SendInfo
	state tpc.State
	ops   []txn.Op
}

// wire is the shape every engine payload marshals to — its transaction plus
// whichever of participants, state and body it carries — so a payload is
// read through its wire form and the engines' types stay private. A commit
// request's body is its receiver's operations (txn.DecodeOps).
type wire struct {
	Txn          string
	Participants []rt.NodeID
	State        tpc.State
	Body         []byte
}

func execute(specs []explore.Schedule) ([]*run, error) {
	var out []*run
	for _, spec := range specs {
		res, log, err := explore.RunLogged(spec)
		if err != nil {
			return nil, err
		}
		r := &run{spec: spec, res: res, sends: map[string][]send{}, parts: map[string][]rt.NodeID{}, life: map[rt.NodeID][]flip{}}
		for _, s := range log {
			var w wire
			var ops []txn.Op
			data, err := json.Marshal(s.Payload)
			if err == nil {
				err = json.Unmarshal(data, &w)
			}
			if err == nil && s.Kind == tpc.KindCommitReq {
				ops, err = txn.DecodeOps(w.Body, s.To)
			}
			if err != nil {
				return nil, fmt.Errorf("conformance: payload of send %d (%s): %w", s.Seq, s.Kind, err)
			}
			r.sends[w.Txn] = append(r.sends[w.Txn], send{s, w.State, ops})
			if s.Kind == tpc.KindCommitReq && r.parts[w.Txn] == nil {
				slices.Sort(w.Participants)
				r.txns, r.parts[w.Txn] = append(r.txns, w.Txn), w.Participants
			}
		}
		for _, e := range res.Events {
			var id rt.NodeID
			if _, err := fmt.Sscanf(e.What, "crash node=%d", &id); err == nil {
				r.life[id] = append(r.life[id], flip{e.T, false})
			} else if _, err := fmt.Sscanf(e.What, "fault recover site=%d", &id); err == nil {
				r.life[id] = append(r.life[id], flip{e.T, true})
			}
		}
		out = append(out, r)
	}
	return out, nil
}

// delta is the explorer network's delay bound δ; the engines' default
// phase timer is 4δ, and a backup gathers states for 2δ+2.
func delta() sim.Time { return simnet.DefaultOptions().MaxDelay }

// up reports whether id was up at t: nodes start up, and the last crash or
// recovery at or before t decides.
func (r *run) up(id rt.NodeID, t sim.Time) bool {
	up := true
	for _, f := range r.life[id] {
		if f.at <= t {
			up = f.up
		}
	}
	return up
}

func (r *run) crashed(id rt.NodeID, from, to sim.Time) bool {
	return slices.ContainsFunc(r.life[id], func(f flip) bool { return !f.up && f.at >= from && f.at <= to })
}

// reaches reports whether a send's receiver was up to take it.
func (r *run) reaches(s send) bool { return r.up(s.To, s.At) && !r.crashed(s.To, s.At, s.At+delta()) }

// violated reports whether the named oracle convicted txn (at site, when
// site is not 0).
func (r *run) violated(oracle, name string, site rt.NodeID) bool {
	return slices.ContainsFunc(r.res.Violations, func(v explore.Violation) bool {
		return v.Oracle == oracle && v.Txn == name && (site == 0 || v.Site == site)
	})
}

// lowestUp is the lowest participant of txn up at t — whom Cohort.backup
// elects — or 0.
func (r *run) lowestUp(name string, t sim.Time) rt.NodeID {
	if i := slices.IndexFunc(r.parts[name], func(p rt.NodeID) bool { return r.up(p, t) }); i >= 0 {
		return r.parts[name][i]
	}
	return 0
}

// about returns the sends naming txn that satisfy keep, in send order.
func (r *run) about(name string, keep func(s send) bool) []send {
	return slices.DeleteFunc(slices.Clone(r.sends[name]), func(s send) bool { return !keep(s) })
}

func isDecision(s send) bool { return s.Kind == tpc.KindCommit || s.Kind == tpc.KindAbort }
func isStateReq(s send) bool { return s.Kind == tpc.KindStateReq }

func (r *run) committed(name string) bool {
	return slices.ContainsFunc(r.sends[name], func(s send) bool { return s.Kind == tpc.KindCommit })
}

// agreeconsensus: no two sites decide a transaction differently — the
// atomicity oracle over durable decisions — counted per (transaction,
// deciding site) on the wire: each sender and up receiver of a decision,
// and each no-voter.
func agreeconsensus(r *run, c *tally) {
	deciders := map[string]bool{}
	for name, sends := range r.sends {
		for _, s := range sends {
			if isDecision(s) || s.Kind == tpc.KindVoteNo {
				deciders[fmt.Sprint(name, "@", s.From)] = true
			}
			if isDecision(s) && r.up(s.To, s.At) {
				deciders[fmt.Sprint(name, "@", s.To)] = true
			}
		}
	}
	c.judged(r, len(deciders), explore.OracleAtomicity)
}

// committedOps counts the committed transactions' operations keep holds for.
func (r *run) committedOps(keep func(op txn.Op) bool) int {
	n := 0
	for name, sends := range r.sends {
		for _, s := range sends {
			for _, op := range s.ops {
				if keep(op) && r.committed(name) {
					n++
				}
			}
		}
	}
	return n
}

// storevalues: a committed write is in its site's stable log — the
// durability oracle, which recovers each site from its WAL alone — counted
// per write of a committed transaction.
func storevalues(r *run, c *tally) {
	c.judged(r, r.committedOps(txn.Op.Mutates), explore.OracleDurability)
}

// locks: a write lock excludes every other lock on its object and a read
// lock excludes writers — the serializability oracle's overlap rule —
// counted per lock grant it judged: each plain read or write of a
// committed transaction.
func locks(r *run, c *tally) {
	c.judged(r, r.committedOps(func(op txn.Op) bool { return op.Class == "" }), explore.OracleSerializability)
}

// agreebroad: once a correct participant (up at the end) learns a decision
// — is sent it or sends it — every correct participant decides it: none
// learns the other outcome, splits from it durably or is left stalled. The
// largest gap between the first and last learning it is the Clockbound.
func agreebroad(r *run, c *tally) {
	end, lag := r.res.Stats.End, sim.Time(0)
	for _, name := range r.txns {
		learned := map[rt.NodeID]send{}
		var first send
		for _, s := range r.about(name, isDecision) {
			for _, x := range []rt.NodeID{s.From, s.To} {
				if _, ok := learned[x]; !ok && slices.Contains(r.parts[name], x) && r.up(x, s.At) && r.up(x, end) {
					if len(learned) == 0 {
						first = s
					}
					learned[x] = s
				}
			}
		}
		for _, x := range r.parts[name] {
			if l, ok := learned[x]; len(learned) > 0 && r.up(x, end) {
				c.check(!r.violated(explore.OracleAtomicity, name, 0) && !r.violated(explore.OracleProgress, name, x) && (!ok || l.Kind == first.Kind),
					r, "txn %s: %s reached a correct participant, site %d did not decide it", name, first.Kind, x)
				lag = max(lag, l.At-first.At)
			}
		}
	}
	c.note = fmt.Sprintf("observed Clockbound: the last correct participant learned a decision %d ticks after the first (plus ≤ δ=%d delivery)", lag, delta())
}

// wait is a participant whose 4δ phase timer must fire by deadline: its
// yes-vote or ack left, it stayed up, and nobody sent it anything that
// could settle the wait — a prepare while in w, or a decision — by then.
type wait struct {
	txn      string
	site     rt.NodeID
	deadline sim.Time
}

// silent lists the waits of transactions with at least two participants
// (a lone participant terminates without a message on the wire).
func (r *run) silent() []wait {
	var out []wait
	for _, name := range r.txns {
		for _, p := range r.parts[name] {
			armed := r.about(name, func(s send) bool { return s.From == p && (s.Kind == tpc.KindVoteYes || s.Kind == tpc.KindAck) })
			if len(armed) == 0 || len(r.parts[name]) < 2 {
				continue
			}
			last := armed[len(armed)-1]
			d := last.At + 4*delta()
			settled := r.about(name, func(s send) bool {
				return s.To == p && s.At <= d && (isDecision(s) || (s.Kind == tpc.KindPrepare && last.Kind == tpc.KindVoteYes))
			})
			if len(settled) == 0 && !r.crashed(p, last.At, d) {
				out = append(out, wait{name, p, d})
			}
		}
	}
	return out
}

// terminated reports whether a participant of txn waited on a silent
// coordinator.
func (r *run) terminated(name string) bool {
	return slices.ContainsFunc(r.silent(), func(w wait) bool { return w.txn == name })
}

// timeout: a participant waiting on a silent coordinator acts — sends its
// first state request — within PhaseTimeout+δ of arming its timer.
func timeout(r *run, c *tally) {
	for _, w := range r.silent() {
		reqs := r.about(w.txn, func(s send) bool { return s.From == w.site && isStateReq(s) })
		c.check(len(reqs) > 0 && reqs[0].At <= w.deadline+delta(), r,
			"txn %s: site %d's coordinator fell silent, no state request by t=%d", w.txn, w.site, w.deadline+delta())
	}
}

// declareFailed: having timed out, the participant declares the
// coordinator failed: it asks for state, and from then on speaks only to
// fellow participants, never asking or waiting on the coordinator.
func declareFailed(r *run, c *tally) {
	for _, w := range r.silent() {
		after := r.about(w.txn, func(s send) bool { return s.From == w.site && s.At >= w.deadline })
		ok := slices.ContainsFunc(after, isStateReq) &&
			!slices.ContainsFunc(after, func(s send) bool { return !slices.Contains(r.parts[w.txn], s.To) })
		c.check(ok, r, "txn %s: site %d timed out and did not turn to its fellow participants", w.txn, w.site)
	}
}

// gathering is one backup's state-vector round: one site's state requests
// at one instant that reach every other participant up, closed by
// terminationDecide 2δ+2 later. A lone request to the lowest participant
// up is an ask, not a gathering, even when only the two are up.
type gathering struct {
	backup     rt.NodeID
	at, closes sim.Time
}

func (r *run) gatherings(name string) []gathering {
	var out []gathering
	reqs := r.about(name, isStateReq)
	for _, s := range reqs {
		asked := func(p rt.NodeID) bool {
			return slices.ContainsFunc(reqs, func(q send) bool { return q.From == s.From && q.At == s.At && q.To == p })
		}
		covers := !slices.ContainsFunc(r.parts[name], func(p rt.NodeID) bool { return p != s.From && r.up(p, s.At) && !asked(p) })
		ask := s.To == r.lowestUp(name, s.At) && !slices.ContainsFunc(r.parts[name], func(p rt.NodeID) bool { return p != s.To && asked(p) })
		if g := (gathering{s.From, s.At, s.At + 2*delta() + 2}); covers && !ask && !slices.Contains(out, g) {
			out = append(out, g)
		}
	}
	return out
}

// answered pairs each state request of txn that reached its receiver with
// the first later state response or decision sent back, and returns the
// sequence numbers of both sends of every pair.
func (r *run) answered(name string) map[uint64]bool {
	paired := map[uint64]bool{}
	for _, q := range r.about(name, func(s send) bool { return isStateReq(s) && r.reaches(s) }) {
		if a := r.about(name, func(a send) bool {
			return a.Seq > q.Seq && !paired[a.Seq] && a.From == q.To && a.To == q.From && (a.Kind == tpc.KindStateResp || isDecision(a))
		}); len(a) > 0 {
			paired[q.Seq], paired[a[0].Seq] = true, true
		}
	}
	return paired
}

// elect: per terminated transaction, a backup is elected and installed.
// Every state request goes to the lowest participant up, unless it comes
// from it, gathering; only it sends a decision other than as an answer;
// and a backup that survives its gathering without being told the outcome
// sends its decision to every other participant as the window closes.
func elect(r *run, c *tally) {
	for _, name := range r.txns {
		if !r.terminated(name) {
			continue
		}
		reqs := r.about(name, isStateReq)
		ok, why := len(reqs) > 0, "no backup was elected"
		fail := func(format string, args ...any) { ok, why = false, fmt.Sprintf(format, args...) }
		for _, s := range reqs {
			if b := r.lowestUp(name, s.At); s.From != b && s.To != b {
				fail("site %d asked %d, the lowest up participant was %d", s.From, s.To, b)
			}
		}
		answered := r.answered(name)
		for _, s := range r.about(name, func(s send) bool { return isDecision(s) && slices.Contains(r.parts[name], s.From) && !answered[s.Seq] }) {
			if b := r.lowestUp(name, s.At); s.From != b {
				fail("site %d disseminated %s, the lowest up participant was %d", s.From, s.Kind, b)
			}
		}
		for _, g := range r.gatherings(name) {
			told := func(from, to rt.NodeID) bool {
				return slices.ContainsFunc(r.sends[name], func(s send) bool {
					return isDecision(s) && s.From == from && s.To == to && s.At >= g.at && s.At <= g.closes
				})
			}
			if r.crashed(g.backup, g.at, g.closes) || slices.ContainsFunc(r.parts[name], func(x rt.NodeID) bool { return told(x, g.backup) }) {
				continue
			}
			for _, x := range r.parts[name] {
				if x != g.backup && !told(g.backup, x) {
					fail("backup %d gathered at t=%d and never told participant %d the outcome", g.backup, g.at, x)
				}
			}
		}
		c.check(ok, r, "txn %s: %s", name, why)
	}
}

// stateinfo: every state request that reaches its receiver is answered
// with the receiver's state or its decision, and a terminated transaction
// gathers a state vector at all.
func stateinfo(r *run, c *tally) {
	for _, name := range r.txns {
		reqs := r.about(name, isStateReq)
		if len(reqs) == 0 && r.terminated(name) {
			c.check(false, r, "txn %s: coordinator silent, no state vector gathered", name)
		}
		answered := r.answered(name)
		for _, q := range reqs {
			if r.reaches(q) {
				c.check(answered[q.Seq], r, "txn %s: site %d never answered site %d's state request (t=%d)", name, q.To, q.From, q.At)
			}
		}
	}
}

// constateinfo: each state vector a backup gathers never holds both a
// commit and an abort, and the decision the backup then sends matches
// every other decision of the transaction, durable ones included.
func constateinfo(r *run, c *tally) {
	for _, name := range r.txns {
		for _, g := range r.gatherings(name) {
			commit, abort := false, false
			for _, s := range r.about(name, func(s send) bool { return s.To == g.backup && s.At >= g.at && s.At <= g.closes }) {
				commit = commit || s.Kind == tpc.KindCommit || (s.Kind == tpc.KindStateResp && s.state == tpc.StateCommitted)
				abort = abort || s.Kind == tpc.KindAbort || (s.Kind == tpc.KindStateResp && s.state == tpc.StateAborted)
			}
			ok := !(commit && abort)
			if d := r.about(name, func(s send) bool { return isDecision(s) && s.From == g.backup && s.At >= g.at }); len(d) > 0 {
				ok = ok && !r.violated(explore.OracleAtomicity, name, 0) && len(r.about(name, func(s send) bool { return isDecision(s) && s.Kind != d[0].Kind })) == 0
			}
			c.check(ok, r, "txn %s: backup %d's state vector or decision is inconsistent", name, g.backup)
		}
	}
}
