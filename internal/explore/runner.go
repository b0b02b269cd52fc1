package explore

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"speccat/internal/sim"
	"speccat/internal/simnet"
	"speccat/internal/tpc"
	"speccat/internal/txn"
	"speccat/internal/workload"
)

// Timing constants of a run. Setup ends at a fixed time (not at measured
// quiescence) so the workload submission timeline is identical between the
// fault-free probe and every faulted replay of the same schedule.
const (
	// setupHorizon bounds the bootstrap phase; the setup transaction
	// quiesces long before this on any sane shape.
	setupHorizon sim.Time = 500
	// submitGap staggers workload submissions so transactions overlap.
	submitGap sim.Time = 15
	// horizonMargin pads the probe's quiescence time to produce the bound
	// for faulted runs: large enough for every timeout/termination/recovery
	// path to settle, small enough that a blocked cohort's endless timer
	// re-arming stays cheap.
	horizonMargin sim.Time = 3000
)

// SetupTxn names the bootstrap transaction that seeds the accounts.
const SetupTxn = "setup"

// Violation is one oracle failure observed in a run.
type Violation struct {
	// Oracle is which property failed: "atomicity", "durability",
	// "serializability", or "progress".
	Oracle string `json:"oracle"`
	// Txn is the transaction involved, when the violation is per-transaction.
	Txn string `json:"txn,omitempty"`
	// Site is the site involved, when the violation is per-site.
	Site simnet.NodeID `json:"site,omitempty"`
	// Detail is a human-readable description of the evidence.
	Detail string `json:"detail"`
}

// Event is one trace line, stamped with simulated time.
type Event struct {
	T    sim.Time `json:"t"`
	What string   `json:"what"`
}

// RunStats summarizes a run.
type RunStats struct {
	Committed int `json:"committed"`
	Aborted   int `json:"aborted"`
	Undecided int `json:"undecided"`
	Sent      int `json:"sent"`
	Delivered int `json:"delivered"`
	Dropped   int `json:"dropped"`
	// SetupSends is the global send count when the bootstrap phase ended;
	// TotalSends the count at the end of the run. Send-targeted faults are
	// placed in [SetupSends, TotalSends) of the fault-free probe.
	SetupSends uint64 `json:"setupSends"`
	TotalSends uint64 `json:"totalSends"`
	// End is the simulated time the run stopped (quiescence for probes,
	// the horizon otherwise).
	End   sim.Time `json:"end"`
	Steps uint64   `json:"steps"`
	// Syncs counts batched stable-store sync operations across all nodes —
	// the journal's fsync bill.
	Syncs int `json:"syncs,omitempty"`
}

// RunResult is the full, deterministic outcome of executing one schedule:
// the schedule itself, the chronological event trace, every oracle
// violation, and summary statistics. Marshaling it yields the replayable
// trace format (see ParseTrace).
type RunResult struct {
	Schedule   Schedule    `json:"schedule"`
	Events     []Event     `json:"events"`
	Violations []Violation `json:"violations"`
	Stats      RunStats    `json:"stats"`
}

// Trace renders the result as the canonical trace file format. The output
// is byte-identical across runs of the same schedule.
func (r *RunResult) Trace() []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		// All fields are plain data; unreachable today.
		return []byte(fmt.Sprintf("{\"error\":%q}", err.Error()))
	}
	return append(b, '\n')
}

// ViolatedOracles returns the distinct oracle names that failed, sorted.
func (r *RunResult) ViolatedOracles() []string {
	seen := map[string]bool{}
	var out []string
	for _, v := range r.Violations {
		if !seen[v.Oracle] {
			seen[v.Oracle] = true
			out = append(out, v.Oracle)
		}
	}
	sort.Strings(out)
	return out
}

// SendInfo is one network send observed during a logged run, in global
// sequence order. The log lets callers locate protocol moments — a prepare
// fan-out, a decision dissemination — and aim send-targeted faults at their
// sequence numbers (durcheck), or read what each message said (conformance).
type SendInfo struct {
	Seq     uint64
	From    simnet.NodeID
	To      simnet.NodeID
	Kind    string
	At      sim.Time
	Payload any
}

// runner executes one schedule and gathers oracle evidence.
type runner struct {
	spec    Schedule
	sched   *sim.Scheduler
	net     *simnet.Network
	cluster *txn.Cluster

	events []Event

	// sendLog records every send, in order; it is not part of the trace.
	sendLog []SendInfo

	// submitted lists transaction names in submission order (setup first).
	submitted []string
	// results holds master-side outcomes as they are decided.
	results map[string]*txn.Result
	// writes records the values each transaction writes at each site
	// (known at submission time; used by the durability oracle).
	writes map[string]map[simnet.NodeID]map[string]string
	// classed records, per transaction and site, the commutative (classed)
	// operations in submission order. The durability oracle folds them over
	// the applied history's absolute writes, mirroring the WAL's logical
	// redo.
	classed map[string]map[simnet.NodeID][]classedOp
	// applied records, per site, the transactions whose commit was applied
	// to the local store, in application order.
	applied map[simnet.NodeID][]string
	// appliedAt records, per site, when each transaction's commit was
	// applied — the moment strict 2PL releases its locks there.
	appliedAt map[simnet.NodeID]map[string]sim.Time
	// opLog records, per site, the data operations in execution order
	// (= strict-2PL lock acquisition order), for the conflict graph.
	opLog map[simnet.NodeID][]opEvent
}

type opEvent struct {
	txn   string
	key   string
	write bool
	// class is the commutativity class of a classed (non-exclusive update)
	// operation; empty for plain reads and absolute writes.
	class string
	// at is the simulated time the operation executed (= was granted its
	// lock). Together with appliedAt it lets the serializability oracle
	// detect incompatible lock modes held simultaneously.
	at sim.Time
}

// classedOp is one commutative operation of a transaction at a site.
type classedOp struct {
	key string
	op  string
	arg string
}

func (r *runner) ev(format string, args ...any) {
	r.events = append(r.events, Event{T: r.sched.Now(), What: fmt.Sprintf(format, args...)})
}

// Run executes a schedule to completion and evaluates every oracle.
// Identical schedules produce byte-identical traces: all randomness flows
// from Schedule.Seed, and every observation is gathered in deterministic
// order.
func Run(spec Schedule) (*RunResult, error) {
	res, _, err := run(spec)
	return res, err
}

// RunLogged is Run plus the chronological send log of the run. The log is
// not part of the trace format, so the trace (and every golden) is Run's.
func RunLogged(spec Schedule) (*RunResult, []SendInfo, error) {
	res, r, err := run(spec)
	if err != nil {
		return nil, nil, err
	}
	return res, r.sendLog, nil
}

func run(spec Schedule) (*RunResult, *runner, error) {
	spec = spec.Normalize()
	cfg, err := spec.Config()
	if err != nil {
		return nil, nil, err
	}
	kind, err := spec.WorkloadKind()
	if err != nil {
		return nil, nil, err
	}
	if spec.Horizon == 0 && len(spec.Faults) > 0 {
		return nil, nil, fmt.Errorf("explore: schedule with faults needs a horizon (a blocked cohort never quiesces)")
	}

	r := &runner{
		spec:      spec,
		sched:     sim.NewScheduler(spec.Seed),
		results:   map[string]*txn.Result{},
		writes:    map[string]map[simnet.NodeID]map[string]string{},
		classed:   map[string]map[simnet.NodeID][]classedOp{},
		applied:   map[simnet.NodeID][]string{},
		appliedAt: map[simnet.NodeID]map[string]sim.Time{},
		opLog:     map[simnet.NodeID][]opEvent{},
	}
	r.net = simnet.New(r.sched, simnet.DefaultOptions())
	// An unset shard count means one shard. It is defaulted here, not in
	// Normalize, so the schedule echoed into the trace keeps its bytes.
	r.cluster, err = txn.NewShardedClusterOn(r.net, spec.Sites, cfg, max(spec.Shards, 1))
	if err != nil {
		return nil, nil, fmt.Errorf("explore: build cluster: %w", err)
	}
	r.net.OnCrash = func(id simnet.NodeID) { r.ev("crash node=%d", id) }
	for _, id := range r.cluster.SiteIDs {
		site := r.cluster.Sites[id]
		sid := id
		// A crash-at-send leaves the sender's handler running on its stack
		// with a frozen store; what that ghost does is not the site's history.
		site.OnOp = func(t string, op txn.Op) {
			if !r.net.Up(sid) {
				return
			}
			r.opLog[sid] = append(r.opLog[sid], opEvent{
				txn: t, key: op.Key, write: op.IsWrite, class: op.Class, at: r.sched.Now(),
			})
		}
		site.OnApply = func(t string, d tpc.Decision) {
			if d == tpc.DecisionCommit && r.net.Up(sid) {
				if r.appliedAt[sid] == nil {
					r.appliedAt[sid] = map[string]sim.Time{}
				}
				// A crash inside a group-commit batch window can destroy an
				// already-applied commit; recovery re-derives and re-applies
				// it, firing this hook a second time. The committed history
				// still contains the transaction once.
				if _, dup := r.appliedAt[sid][t]; dup {
					return
				}
				r.applied[sid] = append(r.applied[sid], t)
				r.appliedAt[sid][t] = r.sched.Now()
			}
		}
		site.SetOnBlocked(func(t string) { r.ev("blocked site=%d txn=%s", sid, t) })
	}

	// The workload generator draws from a child of the root seed so the
	// scheduler's own source (network delays) and the workload stay
	// independent but both replay from Schedule.Seed.
	gen := workload.New(workload.Config{
		Kind:          kind,
		Accounts:      spec.Accounts,
		Transactions:  spec.Txns,
		Rand:          rand.New(rand.NewSource(spec.Seed + 1)),
		ZipfTheta:     spec.ZipfTheta,
		ReadFraction:  spec.ReadFraction,
		WriteFraction: spec.WriteFraction,
		Spread:        spec.Spread,
		Shards:        spec.Shards,
	}, r.cluster.SiteFor)

	// Phase 1: bootstrap the accounts, ending at a fixed time so the workload
	// timeline is schedule-independent; faults first, so the log has setup.
	r.installFaults()
	r.submit(SetupTxn, gen.SetupOps())
	r.sched.RunUntil(setupHorizon)
	setupSends := r.net.SendSeq()

	// Phase 2: staggered workload submissions, then run to the horizon
	// (or quiescence for fault-free probes).
	for i, t := range gen.Generate() {
		name, ops := t.Name, t.Ops
		for j := range ops {
			if ops[j].IsWrite {
				// Unique deterministic tokens make every write attributable
				// to (txn, op) in the durability oracle.
				ops[j].Value = fmt.Sprintf("%s#%d", name, j)
			}
		}
		at := setupHorizon + 1 + sim.Time(i)*submitGap
		r.sched.At(at, func() { r.submit(name, ops) })
	}
	if spec.Horizon > 0 {
		r.sched.RunUntil(spec.Horizon)
	} else {
		r.sched.Run(0)
	}

	res := &RunResult{Schedule: spec, Events: r.events}
	res.Stats = r.stats(setupSends)
	res.Violations = r.checkOracles()
	res.Events = r.events // oracle evaluation appends nothing, but keep in sync
	return res, r, nil
}

// submit registers a transaction's intended writes and hands it to the
// master (recording the error if the master is down).
func (r *runner) submit(name string, ops []txn.Op) {
	r.submitted = append(r.submitted, name)
	w := map[simnet.NodeID]map[string]string{}
	co := map[simnet.NodeID][]classedOp{}
	for _, op := range ops {
		if op.Class != "" {
			co[op.Site] = append(co[op.Site], classedOp{key: op.Key, op: op.Class, arg: op.Value})
			continue
		}
		if !op.IsWrite {
			continue
		}
		if w[op.Site] == nil {
			w[op.Site] = map[string]string{}
		}
		w[op.Site][op.Key] = op.Value
	}
	r.writes[name] = w
	if len(co) > 0 {
		r.classed[name] = co
	}
	r.ev("submit txn=%s ops=%d", name, len(ops))
	err := r.cluster.Master.Submit(name, ops, func(res *txn.Result) {
		r.results[name] = res
		r.ev("decide txn=%s d=%s", name, res.Decision)
	})
	if err != nil {
		r.ev("submit-failed txn=%s: %v", name, err)
	}
}

// installFaults wires the schedule's faults into the network: send-targeted
// faults through the SendHook, time-targeted ones as scheduler events.
func (r *runner) installFaults() {
	bySeq := map[uint64]simnet.SendFault{}
	for _, f := range r.spec.Faults {
		switch f.Kind {
		case FaultCrashAtSend:
			sf := bySeq[f.Seq]
			sf.CrashSender = true
			bySeq[f.Seq] = sf
		case FaultDropSend:
			sf := bySeq[f.Seq]
			sf.Drop = true
			bySeq[f.Seq] = sf
		case FaultDelaySend:
			sf := bySeq[f.Seq]
			sf.Delay += f.Delay
			bySeq[f.Seq] = sf
		}
	}
	r.net.OnSend = func(seq uint64, msg simnet.Message) simnet.SendFault {
		r.sendLog = append(r.sendLog, SendInfo{
			Seq: seq, From: msg.From, To: msg.To, Kind: msg.Kind, At: r.sched.Now(), Payload: msg.Payload,
		})
		sf, ok := bySeq[seq]
		if !ok {
			return simnet.SendFault{}
		}
		switch {
		case sf.CrashSender:
			r.ev("fault crash-at-send seq=%d from=%d kind=%s", seq, msg.From, msg.Kind)
		case sf.Drop:
			r.ev("fault drop-send seq=%d from=%d to=%d kind=%s", seq, msg.From, msg.To, msg.Kind)
		default:
			r.ev("fault delay-send seq=%d kind=%s delay=%d", seq, msg.Kind, sf.Delay)
		}
		return sf
	}
	// Sync-targeted crashes: one hook per victim store, firing on the
	// batch boundaries the schedule names. The stable store invokes the
	// hook after the sync completes (the just-synced batch is durable), so
	// the crash lands exactly at the start of the next batch window. The
	// crash itself is deferred to a same-tick scheduler event rather than
	// taken mid-handler: a sync happens inside a protocol step, and
	// crashing there would split persist from fan-out — the send-granularity
	// interleaving assumption 3 forbids and recovery is not claimed to
	// survive (crash-at-send exists for that, unpaired with recovery).
	bySite := map[simnet.NodeID]map[int]bool{}
	for _, f := range r.spec.Faults {
		if f.Kind != FaultCrashAtSync {
			continue
		}
		if bySite[f.Site] == nil {
			bySite[f.Site] = map[int]bool{}
		}
		bySite[f.Site][f.Nth] = true
	}
	for site, nths := range bySite {
		st, err := r.net.Store(site)
		if err != nil {
			continue
		}
		site, nths := site, nths
		st.SetOnSync(func(n int) {
			if nths[n] {
				r.sched.At(r.sched.Now(), func() {
					r.ev("fault crash-at-sync site=%d n=%d", site, n)
					_ = r.net.Crash(site)
				})
			}
		})
	}
	for _, f := range r.spec.Faults {
		switch f.Kind {
		case FaultCrashAtTime:
			site := f.Site
			r.sched.At(f.At, func() {
				r.ev("fault crash-at-time site=%d", site)
				_ = r.net.Crash(site)
			})
		case FaultRecoverAtTime:
			site := f.Site
			r.sched.At(f.At, func() {
				r.ev("fault recover site=%d", site)
				_ = r.net.Recover(site)
			})
		}
	}
}

func (r *runner) stats(setupSends uint64) RunStats {
	s := RunStats{
		SetupSends: setupSends,
		TotalSends: r.net.SendSeq(),
		End:        r.sched.Now(),
		Steps:      r.sched.Steps(),
	}
	s.Sent, s.Delivered, s.Dropped = r.net.Stats()
	for _, id := range append([]simnet.NodeID{r.cluster.MasterID}, r.cluster.SiteIDs...) {
		if st, err := r.net.Store(id); err == nil {
			s.Syncs += st.Syncs()
		}
	}
	for _, name := range r.submitted {
		switch r.durableOutcome(name) {
		case tpc.DecisionCommit:
			s.Committed++
		case tpc.DecisionAbort:
			s.Aborted++
		default:
			s.Undecided++
		}
	}
	return s
}

// durableOutcome is the group decision for a transaction per stable
// storage: commit if any node durably committed, else abort if any durably
// aborted, else none. (When atomicity holds these never disagree; the
// atomicity oracle reports when they do.)
func (r *runner) durableOutcome(name string) tpc.Decision {
	commit, abort := r.durableDecisions(name)
	if len(commit) > 0 {
		return tpc.DecisionCommit
	}
	if len(abort) > 0 {
		return tpc.DecisionAbort
	}
	return tpc.DecisionNone
}

// durableDecisions partitions nodes by their persisted outcome for name.
func (r *runner) durableDecisions(name string) (commit, abort []simnet.NodeID) {
	ids := append([]simnet.NodeID{r.cluster.MasterID}, r.cluster.SiteIDs...)
	for _, id := range ids {
		st, err := r.net.Store(id)
		if err != nil {
			continue
		}
		// A corrupt record decodes to an error; the node is treated as
		// undecided, exactly like the pre-sentinel DecisionNone fallback,
		// but the corruption is no longer silent to direct callers.
		d, err := tpc.DurableDecision(st, name)
		if err != nil {
			continue
		}
		switch d {
		case tpc.DecisionCommit:
			commit = append(commit, id)
		case tpc.DecisionAbort:
			abort = append(abort, id)
		}
	}
	return commit, abort
}
