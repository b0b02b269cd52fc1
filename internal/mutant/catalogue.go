package mutant

const (
	txnGo, cohortGo, lockingGo = "internal/txn/txn.go", "internal/tpc/cohort.go", "internal/locking/locking.go"
	explore, conformance       = "./internal/explore", "./internal/conformance"
)

// Catalogue returns every mutant, each with the gates that must kill it
// and, for E20's controls, the gates that must spare it. The lock layer's
// reports select their gates by name: E18 the serializability gate over its
// witness shape and commcheck, E11 its Readlock/Writelock row over the same
// shape, E20 the progress gates over its opposed workload.
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

		// tpc: the termination protocol's building blocks, each broken once.
		{Name: "tpc: backup is the highest participant", Edits: []Edit{{cohortGo, "return ids[i] < ids[j]", "return ids[i] > ids[j]"}},
			Kills: []Gate{Test(conformance, "TestBackupIsLowestUpParticipant")}},
		{Name: "tpc: no state response", Edits: []Edit{{cohortGo, "h.send(m.From, KindStateResp, stateResp{Txn: p.Txn, State: t.state})", ""}},
			Kills: []Gate{Test(conformance, "TestTerminationRowsAreNonVacuous")}},
		{Name: "tpc: prepared timer doubled", Edits: []Edit{{cohortGo, "h.cfg.PhaseTimeout, func() {\n\t\t\tif t.state == StatePrepared {", "2*h.cfg.PhaseTimeout, func() {\n\t\t\tif t.state == StatePrepared {"}},
			Kills: []Gate{Test(conformance, "TestTimeoutActsWithinPhaseTimeout")}},
		{Name: "tpc: cohort asks the coordinator", Edits: []Edit{{cohortGo, "h.send(backup, KindStateReq", "h.send(h.coord, KindStateReq"}},
			Kills: []Gate{Test(conformance, "TestBackupElectedAfterCoordinatorCrash")}},
		{Name: "tpc: backup never disseminates", Edits: []Edit{{cohortGo, "\th.decide(txn, d, CauseTerminate)\n\tfor _, p := range t.peers {\n\t\tif p != h.id {\n\t\t\th.send(p, kind, txnMsg{Txn: txn})\n\t\t}\n\t}", "\th.decide(txn, d, CauseTerminate)"}},
			Kills: []Gate{Test(conformance, "TestBackupElectedAfterCoordinatorCrash")}},
	}
}
