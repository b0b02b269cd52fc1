package tpc

// This file makes the paper's Fig. 3.2 an explicit artifact: the allowed
// transitions of the coordinator and cohort FSMs — message, timeout, and
// failure transitions — as data. The engines expose a Trace hook, and the
// tests drive randomized runs (including crashes and recoveries) checking
// that every observed transition is in the table, i.e. the executable
// engine is a refinement of the published automaton.

// Role distinguishes the two automata of Fig. 3.2.
type Role int

// Roles.
const (
	RoleCoordinator Role = iota + 1
	RoleCohort
)

// String names the role.
func (r Role) String() string {
	if r == RoleCoordinator {
		return "coordinator"
	}
	return "cohort"
}

// Cause classifies what fired a transition.
type Cause string

// Causes.
const (
	CauseMessage   Cause = "message"     // solid arrows in Fig. 3.2
	CauseTimeout   Cause = "timeout"     // timeout transitions
	CauseFailure   Cause = "failure"     // failure (recovery) transitions
	CauseTerminate Cause = "termination" // termination-protocol decision
)

// Transition is one arrow of Fig. 3.2.
type Transition struct {
	Role  Role
	From  State
	To    State
	Cause Cause
}

// TraceFunc observes engine transitions.
type TraceFunc func(txn string, tr Transition)

// Fig32Table returns the full transition relation of the paper's Fig. 3.2
// (with the termination protocol's decisions subsuming the cohort timeout
// arrows: a served cohort never takes a bare timeout arrow, and the naive
// timeouts mutant of internal/mutant, which does, maps to the same pairs).
func Fig32Table() []Transition {
	c, h := RoleCoordinator, RoleCohort
	return []Transition{
		// Coordinator, message-driven path: q1 → w1 → p1 → c1, aborts.
		{c, StateInitial, StateWait, CauseMessage},       // send commit requests
		{c, StateWait, StatePrepared, CauseMessage},      // all agreed → prepare
		{c, StateWait, StateAborted, CauseMessage},       // a cohort voted abort
		{c, StatePrepared, StateCommitted, CauseMessage}, // all acks → commit
		// Coordinator timeouts.
		{c, StateWait, StateAborted, CauseTimeout},     // missing votes
		{c, StatePrepared, StateAborted, CauseTimeout}, // missing acks
		// Coordinator failure transitions (on recovery).
		{c, StateInitial, StateAborted, CauseFailure},
		{c, StateWait, StateAborted, CauseFailure},
		{c, StatePrepared, StateCommitted, CauseFailure},

		// Cohort, message-driven path: q2 → w2 → p2 → c2, aborts.
		{h, StateInitial, StateWait, CauseMessage},       // voted yes
		{h, StateInitial, StateAborted, CauseMessage},    // voted no
		{h, StateWait, StatePrepared, CauseMessage},      // prepare received
		{h, StateWait, StateAborted, CauseMessage},       // abort received
		{h, StatePrepared, StateCommitted, CauseMessage}, // commit received
		{h, StatePrepared, StateAborted, CauseMessage},   // abort received in p2
		// Cohort timeout arrows of the figure / termination decisions.
		{h, StateInitial, StateAborted, CauseTimeout},
		{h, StateWait, StateAborted, CauseTimeout},
		{h, StatePrepared, StateCommitted, CauseTimeout},
		{h, StateInitial, StateAborted, CauseTerminate},
		{h, StateWait, StateAborted, CauseTerminate},
		{h, StateWait, StateCommitted, CauseTerminate},
		{h, StatePrepared, StateCommitted, CauseTerminate},
		{h, StatePrepared, StateAborted, CauseTerminate},
		// Cohort failure transitions (on recovery).
		{h, StateInitial, StateAborted, CauseFailure},
		{h, StateWait, StateAborted, CauseFailure},
		{h, StatePrepared, StateCommitted, CauseFailure},
	}
}

// Allowed reports whether tr appears in Fig. 3.2.
func Allowed(tr Transition) bool {
	for _, t := range Fig32Table() {
		if t == tr {
			return true
		}
	}
	return false
}
