// Package explore is a seeded, fully deterministic fault-schedule explorer
// for the repository's executable protocol stack — simulation testing in
// the FoundationDB style. Each root seed expands into a complete fault
// schedule (crash/restart/delay/drop events addressed by simulated time or
// by global send sequence number) that is run end-to-end through
// internal/txn (master + sites + strict-2PL kvstore + WAL) over
// internal/simnet, and then judged by four oracles: cross-site atomicity
// of durable decisions, durability of committed writes under WAL-only
// recovery, conflict-serializability of the committed history, and
// non-blocking progress within the paper's single-failure envelope.
// Failing schedules are recorded as replayable traces and shrunk to
// minimal counterexamples.
//
// The explorer's schedule space deliberately mirrors the assumption
// lattice that internal/mc checks abstractly. Crash-at-send faults split a
// fan-out between two sends — the interleaving assumption 3 (synchronous
// state transition) forbids and exactly where naive 3PC loses atomicity.
// Recovery faults are only paired with crash-at-time (event-granularity)
// faults: internal/mc's TestIndependentRecoveryNeedsLockstep shows that
// independent recovery per Fig. 3.2 is only sound at that granularity, so
// pairing recovery with a mid-fan-out crash would report violations the
// paper does not claim to prevent. Under the generated envelope, 3pc runs
// clean, 3pc-naive loses atomicity, and 2pc blocks.
package explore

import (
	"errors"
	"math/rand"

	"speccat/internal/sim"
	"speccat/internal/simnet"
)

// ErrBudget is returned when the run budget is exhausted.
var ErrBudget = errors.New("explore: run budget exhausted")

// Budget caps the number of simulated runs an exploration may consume
// (probes and shrink candidates included), keeping CI invocations bounded
// deterministically — by run count, not wall clock.
type Budget struct {
	// Max is the cap; zero or negative means unlimited.
	Max int
	// Used counts consumed runs.
	Used int
}

// take consumes one run from the budget, reporting whether it was granted.
func (b *Budget) take() bool {
	if b == nil {
		return true
	}
	if b.Max > 0 && b.Used >= b.Max {
		return false
	}
	b.Used++
	return true
}

// runCounted executes a schedule against the budget.
func runCounted(spec Schedule, budget *Budget) (*RunResult, error) {
	if !budget.take() {
		return nil, ErrBudget
	}
	return Run(spec)
}

// probe runs the fault-free variant of a schedule to quiescence, learning
// the send-sequence range and quiescence time that fault placement needs.
func probe(spec Schedule, budget *Budget) (*RunResult, error) {
	spec.Faults = nil
	spec.Horizon = 0
	return runCounted(spec, budget)
}

// Options parameterizes an exploration.
type Options struct {
	// Protocol is "3pc", "3pc-naive", "3pc-unsafe-term", or "2pc".
	Protocol string
	// Seeds is how many root seeds to explore (default 32), starting at
	// StartSeed (default 1).
	Seeds     int
	StartSeed int64
	// Sites/Accounts/Txns shape each schedule (defaults 3/8/12).
	Sites, Accounts, Txns int
	// Crashes is the number of crash faults per schedule (default 1 — the
	// paper's design fault tolerance; more exceeds what the protocol
	// claims, and the progress oracle stands down).
	Crashes int
	// Drops and Delays inject that many send-targeted network faults per
	// schedule (default 0: the paper's reliable bounded-delay network).
	// Non-zero values deliberately violate the network assumptions, E10
	// style; violations found under them are expected, not bugs.
	Drops, Delays int
	// MaxDelay caps per-message delay inflation (default 25 ticks).
	MaxDelay sim.Time
	// Budget caps total simulated runs, probes and shrinking included
	// (0 = unlimited).
	Budget int
	// Shrink minimizes the first failing schedule of each oracle.
	Shrink bool
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Protocol == "" {
		o.Protocol = Proto3PC
	}
	if o.Seeds == 0 {
		o.Seeds = 32
	}
	if o.StartSeed == 0 {
		o.StartSeed = 1
	}
	if o.Sites == 0 {
		o.Sites = 3
	}
	if o.Accounts == 0 {
		o.Accounts = 8
	}
	if o.Txns == 0 {
		o.Txns = 12
	}
	if o.Crashes == 0 {
		o.Crashes = 1
	}
	if o.MaxDelay == 0 {
		o.MaxDelay = 25
	}
	return o
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		o.Log(format, args...)
	}
}

// Finding is one seed whose schedule violated at least one oracle.
type Finding struct {
	Seed int64 `json:"seed"`
	// Oracle is the primary (first-reported) violated oracle.
	Oracle string `json:"oracle"`
	// Oracles lists every violated oracle, sorted.
	Oracles    []string    `json:"oracles"`
	Schedule   Schedule    `json:"schedule"`
	Violations []Violation `json:"violations"`
	// Minimal is the shrunk counterexample's full result (present when
	// shrinking ran for this finding's oracle).
	Minimal *RunResult `json:"minimal,omitempty"`
}

// Report summarizes an exploration.
type Report struct {
	Protocol string    `json:"protocol"`
	SeedsRun int       `json:"seedsRun"`
	Runs     int       `json:"runs"`
	Findings []Finding `json:"findings"`
}

// Explore walks Seeds root seeds: each seed deterministically generates a
// fault schedule, runs it, and checks the oracles. The first finding per
// oracle is shrunk (when Options.Shrink). The whole exploration is a pure
// function of Options — rerunning it reproduces the same report.
func Explore(opts Options) (*Report, error) {
	opts = opts.withDefaults()
	if _, err := (Schedule{Protocol: opts.Protocol}).Config(); err != nil {
		return nil, err
	}
	budget := &Budget{Max: opts.Budget}
	report := &Report{Protocol: opts.Protocol}
	shrunk := map[string]bool{}
	for i := 0; i < opts.Seeds; i++ {
		seed := opts.StartSeed + int64(i)
		spec, err := genSchedule(opts, seed, budget)
		if errors.Is(err, ErrBudget) {
			break
		}
		if err != nil {
			return nil, err
		}
		res, err := runCounted(spec, budget)
		if errors.Is(err, ErrBudget) {
			break
		}
		if err != nil {
			return nil, err
		}
		report.SeedsRun++
		if len(res.Violations) == 0 {
			continue
		}
		f := Finding{
			Seed:       seed,
			Oracle:     res.Violations[0].Oracle,
			Oracles:    res.ViolatedOracles(),
			Schedule:   spec,
			Violations: res.Violations,
		}
		opts.logf("seed %d: %s violated (%d violations, faults: %v)",
			seed, f.Oracle, len(res.Violations), spec.Faults)
		if opts.Shrink && !shrunk[f.Oracle] {
			shrunk[f.Oracle] = true
			_, minRes, err := Shrink(spec, f.Oracle, budget)
			if err == nil && minRes != nil {
				f.Minimal = minRes
				opts.logf("seed %d: shrunk to %d txns, %d faults",
					seed, minRes.Schedule.Txns, len(minRes.Schedule.Faults))
			}
		}
		report.Findings = append(report.Findings, f)
	}
	report.Runs = budget.Used
	return report, nil
}

// genSchedule expands one root seed into a fault schedule. Fault placement
// draws from its own seeded source (independent of the run's scheduler
// RNG) and targets the window after bootstrap, using a fault-free probe to
// learn the send-sequence range and quiescence time.
//
// Placement rules encode the assumption lattice (see the package comment):
// recovery faults pair only with crash-at-time, never crash-at-send.
func genSchedule(opts Options, seed int64, budget *Budget) (Schedule, error) {
	base := Schedule{
		Protocol: opts.Protocol,
		Seed:     seed,
		Sites:    opts.Sites,
		Accounts: opts.Accounts,
		Txns:     opts.Txns,
	}
	pr, err := probe(base, budget)
	if err != nil {
		return Schedule{}, err
	}
	lo, hi := pr.Stats.SetupSends, pr.Stats.TotalSends
	end := pr.Stats.End
	if end <= setupHorizon {
		end = setupHorizon + 1
	}
	// A distinct stream from the run seed, so fault placement doesn't
	// correlate with network delay sampling.
	rng := rand.New(rand.NewSource(seed ^ 0x5DEECE66D))
	phaseTimeout := 4 * r3Delta // engines default to 4δ

	var faults []Fault
	for i := 0; i < opts.Crashes; i++ {
		// Naive 3PC's vulnerability window is mid-fan-out, so bias that
		// variant toward send-granularity crashes (3 in 4 instead of 2 in 4).
		atSendOdds := 2
		if opts.Protocol == Proto3PCNaive {
			atSendOdds = 3
		}
		if rng.Intn(4) < atSendOdds && hi > lo {
			seq := lo + uint64(rng.Int63n(int64(hi-lo)))
			faults = append(faults, Fault{Kind: FaultCrashAtSend, Seq: seq})
			continue
		}
		at := setupHorizon + 1 + sim.Time(rng.Int63n(int64(end-setupHorizon)))
		victim := simnet.NodeID(1) // the master/coordinator site
		if rng.Intn(2) == 1 {
			victim = simnet.NodeID(2 + rng.Intn(opts.Sites))
		}
		faults = append(faults, Fault{Kind: FaultCrashAtTime, Site: victim, At: at})
		if rng.Intn(2) == 0 {
			faults = append(faults, Fault{
				Kind: FaultRecoverAtTime,
				Site: victim,
				At:   at + phaseTimeout*sim.Time(2+rng.Int63n(8)),
			})
		}
	}
	for i := 0; i < opts.Drops && hi > lo; i++ {
		faults = append(faults, Fault{Kind: FaultDropSend, Seq: lo + uint64(rng.Int63n(int64(hi-lo)))})
	}
	for i := 0; i < opts.Delays && hi > lo; i++ {
		faults = append(faults, Fault{
			Kind:  FaultDelaySend,
			Seq:   lo + uint64(rng.Int63n(int64(hi-lo))),
			Delay: 1 + sim.Time(rng.Int63n(int64(opts.MaxDelay))),
		})
	}
	base.Faults = faults
	base.Horizon = pr.Stats.End + horizonMargin
	return base, nil
}

// r3Delta mirrors simnet.DefaultOptions().MaxDelay (the paper's δ) for
// timeout arithmetic in fault placement.
const r3Delta sim.Time = 10
