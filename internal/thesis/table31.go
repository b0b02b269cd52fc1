package thesis

// BuildingBlock is one row of the paper's Table 3.1, extended with the
// requirements stated in Section 3.5.1 and the Go code that implements the
// block executably.
type BuildingBlock struct {
	// ID is the table row (1, 1.1, 1.2, 2, ...).
	ID string
	// Name is the protocol name.
	Name string
	// SpecName is the corpus specification encoding its properties.
	SpecName string
	// Package is the directory of the executable implementation, and Code
	// the functions or types in it that discharge the block's requirements.
	Package, Code string
	// Requirements are the stated requirements from Section 3.5.1.
	Requirements []string
}

// Table31 reproduces Table 3.1 ("Various Building Blocks of 3PC") with the
// requirement lists of Section 3.5.1.
func Table31() []BuildingBlock {
	return []BuildingBlock{
		{
			ID: "1", Name: "Controller Protocol", SpecName: "CONTROLLER", Package: "internal/tpc", Code: "Coordinator, Cohort",
			Requirements: []string{
				"recognize participant failures",
				"allow recovery from mid-commitment failure",
				"reliable broadcasting between participants",
				"uniform agreement procedure among participants",
				"commitment executed at end of transaction and made permanent",
				"collect local states into global state vectors",
			},
		},
		{
			ID: "1.1", Name: "Broadcast Protocol", SpecName: "BROADCAST", Package: "internal/tpc", Code: "Coordinator.commit/abort, Cohort.terminationDecide",
			Requirements: []string{
				"termination: some correct process eventually delivers",
				"validity: delivered messages were multicast",
				"integrity: at-most-once delivery, no duplication",
				"uniform agreement: delivery by one implies delivery by all correct",
				"timeliness: delivery within (f+1)*delta",
			},
		},
		{
			ID: "1.2", Name: "Consensus Protocol", SpecName: "CONSENSUS", Package: "internal/tpc", Code: "Cohort.decide, Cohort.terminationDecide",
			Requirements: []string{
				"termination: every correct site eventually decides",
				"integrity: a site decides at most once",
				"validity: decided values were proposed",
				"uniform agreement: no two sites decide differently",
			},
		},
		{
			ID: "2", Name: "Snapshot Protocol", SpecName: "SNAPSHOT", Package: "internal/tpc", Code: "Cohort.startTermination, KindStateReq/KindStateResp",
			Requirements: []string{
				"global state never holds both a commit and an abort state",
				"global transition on every local transition",
				"local transitions instantaneous and mutually exclusive",
				"exactly one local transition per global transition",
			},
		},
		{
			ID: "3", Name: "Undo/Redo Logging Protocol", SpecName: "UNDOREDO", Package: "internal/wal", Code: "Log.LoggedUpdate, Log.Commit",
			Requirements: []string{
				"log kept in stable storage",
				"undo entry in stable log before writing",
				"redo entry in stable log before committing",
				"write-ahead: actions logged before taken",
				"undo and redo idempotent across repeated crashes",
			},
		},
		{
			ID: "4", Name: "Two Phase Locking Protocol", SpecName: "TWOPHASELOCK", Package: "internal/locking", Code: "Manager.Acquire, Manager.ReleaseAll",
			Requirements: []string{
				"at most one transaction write-locks an object",
				"write lock enforces complete mutual exclusion",
				"multiple concurrent read locks allowed",
				"no read locks while write-locked",
				"all objects unlocked before the transaction finishes",
			},
		},
		{
			ID: "5", Name: "Checkpointing Protocol", SpecName: "CHECKPOINTING", Package: "internal/checkpoint", Code: "Node (not on the served path)",
			Requirements: []string{
				"no domino effect",
				"checkpoint sets form a consistent system state",
				"no message from after the k-th checkpoint consumed before it",
				"periodic checkpointing with common period",
				"tentative checkpoints promoted to permanent",
			},
		},
		{
			ID: "6", Name: "Recovery Protocol", SpecName: "RECOVERY", Package: "internal/recovery", Code: "Recover",
			Requirements: []string{
				"restore an earlier state from a stable checkpoint and replay the log",
				"roll back processes whose states depend on lost states",
				"externalize messages only when their states cannot be undone",
				"recovered site rejoins the active transaction",
			},
		},
		{
			ID: "7", Name: "Decision Making Protocol", SpecName: "DECISIONMAKING", Package: "internal/tpc", Code: "Cohort.terminationDecide",
			Requirements: []string{
				"no local state's concurrency set contains both abort and commit",
				"no non-committable state concurrent with a commit state",
				"terminate the transaction when either rule fails",
			},
		},
		{
			ID: "8", Name: "Termination Protocol", SpecName: "TERMINATION", Package: "internal/tpc", Code: "Cohort.startTermination",
			Requirements: []string{
				"terminate temporarily when the non-blocking theorem holds at some operational site",
				"terminate permanently when no operational site satisfies the rules",
				"assist electing a backup coordinator on coordinator failure",
			},
		},
		{
			ID: "9", Name: "Voting (Election) Protocol", SpecName: "VOTING", Package: "internal/tpc", Code: "Cohort.backup",
			Requirements: []string{
				"invoked by the termination protocol on coordinator failure",
				"backup bases the commit decision on its local state",
				"commit when the backup's concurrency set contains a commit state",
				"backup instructs all sites to transition to its local state",
			},
		},
		{
			ID: "10", Name: "Failure/Time-out Management Protocol", SpecName: "FAILUREMGMT", Package: "internal/tpc", Code: "cohort phase timers, Cohort.onCoordinatorSilent",
			Requirements: []string{
				"specify the failure model for the network",
				"compensate clock drift: delta replaced by (1+rho)*delta",
				"no response within 2*delta implies the peer crashed",
				"all pre-crash messages delivered before failure notification",
			},
		},
	}
}
