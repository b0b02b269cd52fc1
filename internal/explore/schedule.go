package explore

import (
	"bytes"
	"encoding/json"
	"fmt"

	"speccat/internal/sim"
	"speccat/internal/simnet"
	"speccat/internal/tpc"
	"speccat/internal/workload"
)

// FaultKind enumerates the injectable fault events of a schedule.
type FaultKind string

// Fault kinds. Send-targeted faults use the network's global send
// sequence number as their coordinate system (see simnet.SendHook), which
// is stable across replays of the same schedule; time-targeted faults use
// simulated time and therefore always land on an event boundary — the
// executable equivalent of the model checker's lockstep assumption.
const (
	// FaultCrashAtSend crashes whichever node issues global send #Seq,
	// before that message leaves: the interleaving "a site fails between
	// two sends of one fan-out" that assumption 3 forbids.
	FaultCrashAtSend FaultKind = "crash-at-send"
	// FaultCrashAtTime crashes Site at time At (event-granularity).
	FaultCrashAtTime FaultKind = "crash-at-time"
	// FaultRecoverAtTime restarts Site at time At, running its recovery
	// protocol (Fig. 3.2 failure transitions + WAL replay).
	FaultRecoverAtTime FaultKind = "recover-at-time"
	// FaultCrashAtSync crashes Site the moment its stable store completes
	// sync #Nth (1-based count of group-commit fsyncs at that site): the
	// exact batch boundary of the group-committed journal, destroying
	// whatever the next batch window accumulates.
	FaultCrashAtSync FaultKind = "crash-at-sync"
	// FaultDropSend discards the message of global send #Seq (violates
	// the reliable-network assumption).
	FaultDropSend FaultKind = "drop-send"
	// FaultDelaySend adds Delay ticks to the message of global send #Seq
	// (violates the bounded-delay assumption when large).
	FaultDelaySend FaultKind = "delay-send"
)

// Fault is one injected event of a schedule.
type Fault struct {
	Kind FaultKind `json:"kind"`
	// Site is the target of time-targeted faults. For crash-at-send it is
	// informational only (the node observed crashing when the schedule was
	// found): the semantics are "crash the sender of send #Seq".
	Site simnet.NodeID `json:"site,omitempty"`
	// Seq is the global send sequence number for send-targeted faults.
	Seq uint64 `json:"seq,omitempty"`
	// At is the simulated time for time-targeted faults.
	At sim.Time `json:"at,omitempty"`
	// Nth is the 1-based sync count for crash-at-sync faults.
	Nth int `json:"nth,omitempty"`
	// Delay is the extra latency for delay-send faults.
	Delay sim.Time `json:"delay,omitempty"`
}

// String renders a fault compactly for traces and logs.
func (f Fault) String() string {
	switch f.Kind {
	case FaultCrashAtSend:
		return fmt.Sprintf("crash sender of send #%d", f.Seq)
	case FaultCrashAtTime:
		return fmt.Sprintf("crash site %d at t=%d", f.Site, f.At)
	case FaultCrashAtSync:
		return fmt.Sprintf("crash site %d at sync #%d", f.Site, f.Nth)
	case FaultRecoverAtTime:
		return fmt.Sprintf("recover site %d at t=%d", f.Site, f.At)
	case FaultDropSend:
		return fmt.Sprintf("drop send #%d", f.Seq)
	case FaultDelaySend:
		return fmt.Sprintf("delay send #%d by %d", f.Seq, f.Delay)
	default:
		return fmt.Sprintf("fault(%s)", string(f.Kind))
	}
}

// Protocol names accepted by schedules (the CLI's -protocol values).
const (
	Proto3PC = "3pc"
	Proto2PC = "2pc"
)

// Workload names accepted by schedules (the CLI's -workload values).
// Empty means the default transfer workload, so pre-existing traces stay
// byte-identical.
const (
	WorkloadTransfers      = "transfers"
	WorkloadCommutative    = "commutative"
	WorkloadReadMostly     = "read-mostly"
	WorkloadHotspot        = "hotspot"
	WorkloadCrossPartition = "cross-partition"
	WorkloadOpposed        = "opposed"
)

// Schedule is a complete, replayable description of one simulated run:
// the protocol variant, the deterministic seed driving network delays and
// workload generation, the cluster and workload shape, and the injected
// fault events. Running the same schedule twice produces byte-identical
// traces.
type Schedule struct {
	Protocol string `json:"protocol"`
	Seed     int64  `json:"seed"`
	// Sites is the number of data sites (the master/coordinator is an
	// additional node).
	Sites    int `json:"sites"`
	Accounts int `json:"accounts"`
	// Txns is the number of workload transactions (a bootstrap transaction
	// seeding the accounts runs first and is not counted).
	Txns int `json:"txns"`
	// Horizon is the absolute simulated-time bound of the run; zero means
	// run to quiescence (only meaningful for fault-free probe runs — a
	// blocked 2PC cohort re-arms its timer forever).
	Horizon sim.Time `json:"horizon,omitempty"`
	Faults  []Fault  `json:"faults,omitempty"`
	// Workload selects the generated mix: "" or "transfers" for the
	// absolute-write transfer workload, "commutative" for zipfian
	// increment-transfers (paired ±delta increment ops) plus a read
	// fraction.
	Workload string `json:"workload,omitempty"`
	// ZipfTheta skews the commutative workload's account choice
	// (0 = uniform).
	ZipfTheta float64 `json:"zipfTheta,omitempty"`
	// ReadFraction is the commutative mix's share of single-key reads.
	ReadFraction float64 `json:"readFraction,omitempty"`
	// WriteFraction is the commutative mix's share of blind absolute-write
	// transactions (see workload.Config.WriteFraction) — the accesses the
	// underlock mutant races against concurrent increments.
	WriteFraction float64 `json:"writeFraction,omitempty"`
	// Spread is the cross-partition mix's accounts-per-transaction
	// (workload.Config.Spread; 0 means the generator default).
	Spread int `json:"spread,omitempty"`
	// Shards hash-partitions every site's database into that many shards
	// (per-shard lock managers and WAL sessions over the site's one
	// stable store). Zero means one shard; it is left as zero in recorded
	// traces (Run defaults it, Normalize does not) so they keep their bytes.
	Shards int `json:"shards,omitempty"`
}

// WorkloadKind translates the schedule's workload name.
func (s Schedule) WorkloadKind() (workload.Kind, error) {
	switch s.Workload {
	case "", WorkloadTransfers:
		return workload.Transfers, nil
	case WorkloadCommutative:
		return workload.Commutative, nil
	case WorkloadReadMostly:
		return workload.ReadMostly, nil
	case WorkloadHotspot:
		return workload.Hotspot, nil
	case WorkloadCrossPartition:
		return workload.CrossPartition, nil
	case WorkloadOpposed:
		return workload.Opposed, nil
	default:
		return 0, fmt.Errorf("explore: unknown workload %q (want transfers, commutative, read-mostly, hotspot, cross-partition, or opposed)", s.Workload)
	}
}

// Config translates the schedule's protocol name into an engine config.
func (s Schedule) Config() (tpc.Config, error) {
	switch s.Protocol {
	case Proto3PC:
		return tpc.Config{Protocol: tpc.ThreePhase}, nil
	case Proto2PC:
		return tpc.Config{Protocol: tpc.TwoPhase}, nil
	default:
		return tpc.Config{}, fmt.Errorf("explore: unknown protocol %q (want 3pc or 2pc)", s.Protocol)
	}
}

// Normalize fills defaults for zero-valued shape fields.
func (s Schedule) Normalize() Schedule {
	if s.Sites == 0 {
		s.Sites = 3
	}
	if s.Accounts == 0 {
		s.Accounts = 8
	}
	if s.Txns == 0 {
		s.Txns = 12
	}
	return s
}

// CrashCount reports how many crash faults the schedule contains.
func (s Schedule) CrashCount() int {
	n := 0
	for _, f := range s.Faults {
		if f.Kind == FaultCrashAtSend || f.Kind == FaultCrashAtTime || f.Kind == FaultCrashAtSync {
			n++
		}
	}
	return n
}

// UnreliableNetwork reports whether the schedule violates the reliable
// bounded-delay network assumption (drops or delay inflation). The
// progress oracle is only meaningful without such violations.
func (s Schedule) UnreliableNetwork() bool {
	for _, f := range s.Faults {
		if f.Kind == FaultDropSend || f.Kind == FaultDelaySend {
			return true
		}
	}
	return false
}

// ParseTrace decodes a trace file (as written by RunResult.Trace) and
// returns the embedded schedule for replay. A field the trace format does
// not have is an error, not ignored: a misspelt or retired schedule field
// would otherwise replay a different run than the one recorded.
func ParseTrace(data []byte) (*RunResult, error) {
	var r RunResult
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("explore: corrupt trace: %w", err)
	}
	if _, err := r.Schedule.Config(); err != nil {
		return nil, err
	}
	if _, err := r.Schedule.WorkloadKind(); err != nil {
		return nil, err
	}
	return &r, nil
}
