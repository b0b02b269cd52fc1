package mutant

const (
	cohortGo, coordinatorGo   = "internal/tpc/cohort.go", "internal/tpc/coordinator.go"
	proverGo                  = "internal/core/prover/prover.go"
	explore, conformance, tpc = "./internal/explore", "./internal/conformance", "./internal/tpc"
	prover                    = "./internal/core/prover"
	// disseminate is terminationDecide's write-ahead tail: persist the
	// decision, and have decide tell every other participant.
	disseminate = "\th.decide(txn, d, CauseTerminate, func() {\n\t\tfor _, p := range t.peers {\n\t\t\tif p != h.id {\n\t\t\t\th.send(p, kind, txnMsg{Txn: txn})\n\t\t\t}\n\t\t}\n\t})"
)

// Catalogue returns every mutant, each with the gates that must kill it
// and the gates that must spare it. The reports select their gates by name:
// E18 the serializability gate over its witness shape and commcheck, E15
// unsafe termination's dur layer and its staged schedule, E11 each row's
// conformance test.
func Catalogue() []Mutant {
	return []Mutant{
		// The commit protocol's ablations: E7's and E15's, and E11's
		// termination and agreement rows'. Naive timeouts takes Fig. 3.2's
		// bare timeout arrows instead of the termination protocol: atomic
		// while a fan-out is one event, split by a coordinator crash between
		// two prepares. Unsafe termination has the backup disseminate its
		// decision before persisting it: a backup crashed between two sends
		// restarts from w and aborts what a peer committed.
		{Name: "naive timeouts", Edits: []Edit{{cohortGo, "\tdefault:\n\t\th.startTermination(txn, t)\n", `	default:
		if t.state == StateWait {
			h.decide(txn, DecisionAbort, CauseTimeout, nil)
		} else if t.state == StatePrepared {
			h.decide(txn, DecisionCommit, CauseTimeout, nil)
		}
`}},
			Kills: []Gate{Test(explore, "TestExplore3PCCleanUnderDesignFaults"), Test(explore, "TestAblationGoldensRunClean"), Test(tpc, "TestTraceCausesMeaningful"),
				Test(conformance, "TestAgreeconsensusCatchesCrashMidProtocol"), Test(conformance, "TestTimeoutActsWithinPhaseTimeout"),
				Test(conformance, "TestBackupElectedAfterCoordinatorCrash"), Test(conformance, "TestTerminationRowsAreNonVacuous")},
			Spares: []Gate{Test(tpc, "TestNaiveTimeoutsSweepStaysAtomicInEngine")}},
		{Name: "unsafe termination", Edits: []Edit{{cohortGo, disseminate, `	for _, p := range t.peers {
		if p != h.id {
			h.send(p, kind, txnMsg{Txn: txn})
		}
	}
	h.decide(txn, d, CauseTerminate, nil)`}},
			Kills: []Gate{Lint("dur"), Test("./internal/analysis/durcheck", "TestCrossValidateNegativeControl"), Test(explore, "TestAblationGoldensRunClean"),
				Test(conformance, "TestAgreeconsensusCatchesCrashMidProtocol"), Test(conformance, "TestAgreebroadCatchesDisseminatorCrash"), Test(conformance, "TestGatheredStateVectorRules")},
			Spares: []Gate{Test(explore, "TestCrashedNodeObservesNothing"), Test("./internal/txn", "TestSimulatedRestartIsProcessRestart")}},

		// The lock layer's ablation: E18's and E11's Readlock/Writelock row.
		{Name: "underlock", Edits: []Edit{{"internal/kvstore/kvstore.go", "key, locking.Write, nil)", "key, locking.IncMode, nil)"}},
			Kills: []Gate{Test(explore, "TestUnderlockWitnessShapeSerializable"), Test(conformance, "TestLockRowHoldsOnWitnessShape"), Lint("comm")}},

		// stable: a crash restores the unsynced window but not the synced
		// records a TruncateLog cut.
		{Name: "stable: revert without cutLog", Edits: []Edit{{"internal/stable/stable.go", "append(s.log[:s.keepLog], s.cutLog...)", "s.log[:s.keepLog]"}},
			Kills: []Gate{Test("./internal/stable", "TestWindowMatchesFullCopy")}},

		// locking: ReleaseAll drops the holder but keeps the idle object.
		{Name: "locking: ReleaseAll does not evict", Edits: []Edit{{"internal/locking/locking.go", "\t\tm.unhold(txn, key)\n", "\t\tdelete(m.objects[key], txn)\n"}},
			Kills: []Gate{Test("./internal/locking", "TestReleasingEveryTransactionEmptiesManager")}},

		// corpus: an axiom names an op its spec never declares, which strict
		// elaboration rejects.
		{Name: "corpus: axiom names an undeclared op", Edits: []Edit{{"internal/thesis/corpus.sw", "Broadcast(p, m, T) => Deliver(p, m,", "Broadcast(p, m, T) => Delivered(p, m,"}},
			Kills: []Gate{Test("./internal/thesis", "TestCorpusElaborates")}},

		// prover: given-clause selection without the size tie-break.
		{Name: "prover: better without size", Edits: []Edit{{proverGo, "\tif st.size[a] != st.size[b] {\n\t\treturn st.size[a] < st.size[b]\n\t}\n", ""}},
			Kills: []Gate{Test("./internal/thesis", "TestProofsMatchGolden")}},
		// prover: the duplicate key blind to sorts, or to literal order.
		{Name: "prover: sort-blind key", Edits: []Edit{{"internal/core/logic/cnf.go", "\t\tbuf = append(append(buf, ':'), t.Sort...)\n", ""}},
			Kills: []Gate{Test(prover, "TestDuplicateKeyIsSortAware")}},
		{Name: "prover: key literals unsorted", Edits: []Edit{{"internal/core/logic/cnf.go", "slices.SortFunc(spans,", "slices.SortFunc(spans[:0],"}},
			Kills: []Gate{Test("./internal/thesis", "TestProofsMatchGolden")}},
		// prover: the literal index looks up the given literal's own
		// polarity; the duplicate check under the unifier ignores sorts; the
		// MaxClauses check runs only after a partner.
		{Name: "prover: index looks up own polarity", Edits: []Edit{{proverGo, "atomKey{!l.Negated", "atomKey{l.Negated"}},
			Kills: []Gate{Test("./internal/thesis", "TestProofsMatchGolden")}},
		{Name: "prover: sort-blind duplicate check", Edits: []Edit{{"internal/core/logic/subst.go", "a.Name != b.Name || a.Sort != b.Sort ||", "a.Name != b.Name ||"}},
			Kills: []Gate{Test(prover, "TestResolveMatchesReference")}},
		{Name: "prover: limit checked after a partner", Edits: []Edit{{proverGo, "\t\t}\n\t\t// Once MaxClauses", "\t\t// Once MaxClauses"},
			{proverGo, "ErrLimit, st.limits.MaxClauses)\n\t\t}\n", "ErrLimit, st.limits.MaxClauses)\n\t\t}\n\t\t}\n"}},
			Kills: []Gate{Test(prover, "TestMaxClausesWithoutPartners")}},

		// tpc: the termination protocol's building blocks, each broken once.
		{Name: "tpc: backup is the highest participant", Edits: []Edit{{cohortGo, "return ids[i] < ids[j]", "return ids[i] > ids[j]"}},
			Kills: []Gate{Test(conformance, "TestBackupIsLowestUpParticipant")}},
		{Name: "tpc: no state response", Edits: []Edit{{cohortGo, "h.send(m.From, KindStateResp, stateResp{Txn: p.Txn, State: t.state})", ""}},
			Kills: []Gate{Test(conformance, "TestTerminationRowsAreNonVacuous")}},
		{Name: "tpc: prepared timer doubled", Edits: []Edit{{cohortGo, "h.cfg.PhaseTimeout, func() {\n\t\t\tif t.state == StatePrepared {", "2*h.cfg.PhaseTimeout, func() {\n\t\t\tif t.state == StatePrepared {"}},
			Kills: []Gate{Test(conformance, "TestTimeoutActsWithinPhaseTimeout")}},
		{Name: "tpc: cohort asks the coordinator", Edits: []Edit{{cohortGo, "h.send(backup, KindStateReq", "h.send(h.coord, KindStateReq"}},
			Kills: []Gate{Test(conformance, "TestBackupElectedAfterCoordinatorCrash")}},
		{Name: "tpc: backup never disseminates", Edits: []Edit{{cohortGo, disseminate, "\th.decide(txn, d, CauseTerminate, nil)\n\t_ = kind"}},
			Kills: []Gate{Test(conformance, "TestBackupElectedAfterCoordinatorCrash")}},

		// tpc: each forced announcement sent before the fsync recovery needs —
		// 2PC's w1 and its commit from w, the coordinator's abort from p, the
		// cohort's contradicting decision and its decided reply meanwhile.
		{Name: "tpc: 2PC w1 not forced", Edits: []Edit{{coordinatorGo, "c.forceThen(c.cfg.Protocol == TwoPhase,", "c.forceThen(false,"}},
			Kills: []Gate{Test("./internal/txn", "TestConstructionRecovers")}},
		{Name: "tpc: commit from w not forced", Edits: []Edit{{coordinatorGo, "c.forceThen(!from.Committable(),", "_ = from\n\tc.forceThen(false,"}},
			Kills: []Gate{Test("./internal/txn", "TestConstructionRecovers")}},
		{Name: "tpc: contradicting decision not forced", Edits: []Edit{{cohortGo, "t.forcing = (d ==", "t.forcing = false && (d =="}},
			Kills: []Gate{Test(explore, "TestGoldenTraces")}},
		{Name: "tpc: abort from p not forced", Edits: []Edit{{coordinatorGo, "c.forceThen(from == StatePrepared,", "_ = from\n\tc.forceThen(false,"}},
			Kills: []Gate{Test(explore, "TestAbortFromPreparedIsForced")}},
		{Name: "tpc: decided reply ignores a pending force", Edits: []Edit{{cohortGo, "h.forceThen(t.forcing, func() { h.send(", "h.forceThen(false, func() { h.send("}},
			Kills: []Gate{Test(tpc, "TestForcedAnnouncementsWaitForTheFsync")}},

		// tpc: a decided transaction keeps only its decision, which must
		// still keep its name taken.
		{Name: "tpc: decided name begins again", Edits: []Edit{{coordinatorGo, "; dup || c.Decision(txn) != DecisionNone {", "; dup {"}},
			Kills: []Gate{Test(tpc, "TestDecidedTransactionKeepsOnlyItsDecision")}},

		// live: what Cancel must do — forget a wall timer, stop a zero-delay hand-off.
		{Name: "live: cancelled timer kept", Edits: []Edit{{"internal/rt/live/live.go", "\t\tw.stop()\n\t\tw.net.forget(w)\n", "\t\tw.stop()\n"}},
			Kills: []Gate{Test("./internal/rt/live", "TestCancelledTimersAreForgotten")}},
		{Name: "live: zero-delay hand-off ignores Cancel", Edits: []Edit{{"internal/rt/live/live.go", "\t\tn.enqueue(run)\n\t\treturn w\n", "\t\tn.enqueue(fn)\n\t\treturn w\n"}},
			Kills: []Gate{Test("./internal/rt/live", "TestZeroDelayAfterIsAHandOff")}},
	}
}
