package mutant

const (
	txnGo, cohortGo, lockingGo = "internal/txn/txn.go", "internal/tpc/cohort.go", "internal/locking/locking.go"
	explore, conformance, tpc  = "./internal/explore", "./internal/conformance", "./internal/tpc"
	// disseminate is terminationDecide's write-ahead tail: persist the
	// decision, then tell every other participant.
	disseminate = "\th.decide(txn, d, CauseTerminate)\n\tfor _, p := range t.peers {\n\t\tif p != h.id {\n\t\t\th.send(p, kind, txnMsg{Txn: txn})\n\t\t}\n\t}"
)

// Catalogue returns every mutant, each with the gates that must kill it
// and the gates that must spare it. The reports select their gates by name:
// E18 the serializability gate over its witness shape and commcheck, E20 the
// progress gates over its opposed workload, E15 unsafe termination's dur and
// port layers and its staged schedule, E11 each row's conformance test.
func Catalogue() []Mutant {
	// lockWait makes a site wait for a contended lock instead of failing the
	// work: runOps retries an ErrConflict one δ later from the blocked op
	// (its request stays queued, so a later grant lets the retry through),
	// and Submit arms no work timeout, trusting each manager's detector.
	lockWait := []Edit{
		{txnGo, `	// Work timeout: a site that never answers has failed its work.
	m.net.After(m.id, 8*m.net.Delta(), func() {
		m.handle(rt.Message{From: m.id, To: m.id, Kind: kindWorkFail, Payload: doneMsg{Txn: txn}})
	})
`, ``},
		{txnGo, `	for _, op := range ops {
		if err := s.applyOp(txn, op, reads); err != nil {
`, `	for i, op := range ops {
		if err := s.applyOp(txn, op, reads); err != nil {
			if errors.Is(err, kvstore.ErrConflict) {
				rest := ops[i:]
				s.net.After(s.id, s.net.Delta(), func() {
					if !s.failed[txn] && s.Store.Prepared(txn) {
						s.runOps(txn, rest, reads)
					}
				})
				return
			}
`},
	}
	// canonicalOrder sorts a work message's ops by ascending shard, so no
	// two transactions take two shards' locks in opposite orders.
	canonicalOrder := Edit{txnGo, `	s.runOps(w.Txn, w.Ops, map[string]string{})`, `	ops := append([]Op{}, w.Ops...)
	sort.SliceStable(ops, func(i, j int) bool {
		return kvstore.ShardOf(ops[i].Key, s.Store.NumShards()) < kvstore.ShardOf(ops[j].Key, s.Store.NumShards())
	})
	s.runOps(w.Txn, ops, map[string]string{})`}
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
			h.decide(txn, DecisionAbort, CauseTimeout)
		} else if t.state == StatePrepared {
			h.decide(txn, DecisionCommit, CauseTimeout)
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
	h.decide(txn, d, CauseTerminate)`}},
			Kills: []Gate{Lint("dur"), Lint("port"), Test("./internal/analysis/durcheck", "TestCrossValidateNegativeControl"), Test(explore, "TestAblationGoldensRunClean"),
				Test(conformance, "TestAgreeconsensusCatchesCrashMidProtocol"), Test(conformance, "TestAgreebroadCatchesDisseminatorCrash"), Test(conformance, "TestGatheredStateVectorRules")},
			Spares: []Gate{Test(explore, "TestCrashedNodeObservesNothing"), Test("./internal/txn", "TestSimulatedRestartIsProcessRestart")}},

		// The lock layer's ablations: E18, E20 and E11's Readlock/Writelock row.
		{Name: "underlock", Edits: []Edit{{"internal/kvstore/kvstore.go", "key, locking.Write, nil)", "key, locking.IncMode, nil)"}},
			Kills: []Gate{Test(explore, "TestUnderlockWitnessShapeSerializable"), Test(conformance, "TestLockRowHoldsOnWitnessShape"), Lint("comm")}},
		{Name: "lock-wait", Edits: lockWait, Kills: []Gate{Test(explore, "TestOpposedProgressTwoShards")}, Spares: []Gate{Test(explore, "TestOpposedProgressOneShard")}},
		{Name: "lock-wait, canonical order", Edits: append(lockWait, canonicalOrder), Spares: []Gate{Test(explore, "TestOpposedProgressTwoShards")}},

		// stable: a crash restores the unsynced window but not the synced
		// records a TruncateLog cut.
		{Name: "stable: revert without cutLog", Edits: []Edit{{"internal/stable/stable.go", "append(s.log[:s.keepLog], s.cutLog...)", "s.log[:s.keepLog]"}},
			Kills: []Gate{Test("./internal/stable", "TestWindowMatchesFullCopy")}},

		// locking: the touched-keys ReleaseAll loses track of a key.
		{Name: "locking: Release deletes the key", Edits: []Edit{{lockingGo, "\tm.held[txn][key] = 0", "\tdelete(m.held[txn], key)"}},
			Kills: []Gate{Test("./internal/locking", "TestReleaseAllMatchesFullScan")}},
		{Name: "locking: enqueue does not note", Edits: []Edit{{lockingGo, "m.note(txn, key, cur) // a granted mode stays; else 0, queued", ""}},
			Kills: []Gate{Test("./internal/locking", "TestReleaseAllMatchesFullScan")}},
		{Name: "locking: ReleaseAll does not evict", Edits: []Edit{{lockingGo, "\n\t\tm.forget(key, o)\n", "\n"}},
			Kills: []Gate{Test("./internal/locking", "TestReleasingEveryTransactionEmptiesManager")}},

		// prover: given-clause selection without the size tie-break.
		{Name: "prover: better without size", Edits: []Edit{{"internal/core/prover/prover.go", "\tif st.size[a] != st.size[b] {\n\t\treturn st.size[a] < st.size[b]\n\t}\n", ""}},
			Kills: []Gate{Test("./internal/thesis", "TestProofsMatchGolden")}},
		// prover: the duplicate key blind to sorts, or to literal order.
		{Name: "prover: sort-blind key", Edits: []Edit{{"internal/core/logic/cnf.go", "\t\tbuf = append(append(buf, ':'), t.Sort...)\n", ""}},
			Kills: []Gate{Test("./internal/core/prover", "TestDuplicateKeyIsSortAware")}},
		{Name: "prover: key literals unsorted", Edits: []Edit{{"internal/core/logic/cnf.go", "slices.SortFunc(spans,", "slices.SortFunc(spans[:0],"}},
			Kills: []Gate{Test("./internal/thesis", "TestProofsMatchGolden")}},

		// tpc: the termination protocol's building blocks, each broken once.
		{Name: "tpc: backup is the highest participant", Edits: []Edit{{cohortGo, "return ids[i] < ids[j]", "return ids[i] > ids[j]"}},
			Kills: []Gate{Test(conformance, "TestBackupIsLowestUpParticipant")}},
		{Name: "tpc: no state response", Edits: []Edit{{cohortGo, "h.send(m.From, KindStateResp, stateResp{Txn: p.Txn, State: t.state})", ""}},
			Kills: []Gate{Test(conformance, "TestTerminationRowsAreNonVacuous")}},
		{Name: "tpc: prepared timer doubled", Edits: []Edit{{cohortGo, "h.cfg.PhaseTimeout, func() {\n\t\t\tif t.state == StatePrepared {", "2*h.cfg.PhaseTimeout, func() {\n\t\t\tif t.state == StatePrepared {"}},
			Kills: []Gate{Test(conformance, "TestTimeoutActsWithinPhaseTimeout")}},
		{Name: "tpc: cohort asks the coordinator", Edits: []Edit{{cohortGo, "h.send(backup, KindStateReq", "h.send(h.coord, KindStateReq"}},
			Kills: []Gate{Test(conformance, "TestBackupElectedAfterCoordinatorCrash")}},
		{Name: "tpc: backup never disseminates", Edits: []Edit{{cohortGo, disseminate, "\th.decide(txn, d, CauseTerminate)\n\t_ = kind"}},
			Kills: []Gate{Test(conformance, "TestBackupElectedAfterCoordinatorCrash")}},
	}
}
