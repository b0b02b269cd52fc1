GO ?= go

.PHONY: build test race lint loc fsm fsm-check explore mutants verify bench-build bench-test serve load fuzz-wire

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Every linting layer: go vet, then speccatlint's six layers over the whole
# module — the Go design-rule analyzers, the fsmcheck protocol extraction,
# the durcheck durability-ordering analysis, the portcheck
# runtime-boundary/state-confinement analysis, the commcheck commutativity
# lock-mode analysis and the lockcheck 2PL analysis — and the generated-FSM-
# docs staleness gate. Every layer runs by default; speccatlint -only <layer>
# reruns any single layer in isolation. A .sw file has one checker, strict
# elaboration: TestCorpusElaborates and commcheck's Verify of comm.sw run it
# under go test. The greps keep the names declared only for bench/ —
# the inert tpc.Config.ScopedParticipants and
# (*stable.Store).SetGroupCommit, and (*tcp.Net).LocalTime and UpNodes,
# which left rt.Transport — from growing a reader or a caller before they
# are deleted. The served binary must not link the mutant
# runner, which shells out to the go tool. The engines have one sync
# primitive: every forced announcement in internal/tpc goes through
# endpoint.forceThen, which is Store.SyncThen, so the grep for a .Sync( call
# in its non-test files keeps a blocking fsync from coming back onto the
# served event loop. go.mod's go 1.22 directive keeps the pre-1.23 timer
# semantics, under which a time.After timer stays on the runtime heap until
# it fires: a per-request watchdog holds its memory for its whole duration.
# The grep for a time.After( call in the non-test files of cmd/tpcserve and
# internal/rt keeps the serving path on time.NewTimer, stopped on return.
# The served node writes each batch of peer frames as one contiguous buffer
# with conn.Write: the grep for net.Buffers or Writev in the non-test files
# of internal/rt and cmd/tpcserve keeps it off the writev path, which skips
# the race detector's annotation that syscall.Write carries, so a test that
# orders two accesses only through a socket would report a false race.
# Every Go file, bench/ included, must be gofmt-clean.
lint:
	test -z "$$(gofmt -l .)"
	$(GO) vet ./...
	! $(GO) list -deps ./cmd/tpcserve | grep -x 'speccat/internal/mutant'
	! grep -rn 'ScopedParticipants' --include='*.go' . | grep -v '^./bench/' | grep -v 'internal/tpc/tpc.go'
	! grep -rn 'SetGroupCommit' --include='*.go' . | grep -v '^./bench/' | grep -v 'internal/stable/stable.go'
	! grep -rnE 'LocalTime|UpNodes' --include='*.go' . | grep -v '^./bench/' | grep -v 'internal/rt/tcp/tcp.go'
	! grep -rn --include='*.go' --exclude='*_test.go' '\.Sync(' internal/tpc
	! grep -rn --include='*.go' --exclude='*_test.go' 'time\.After(' cmd/tpcserve internal/rt
	! grep -rnE --include='*.go' --exclude='*_test.go' 'net\.Buffers|Writev' cmd/tpcserve internal/rt
	$(GO) run ./cmd/speccatlint ./...
	$(GO) run ./cmd/speccatlint -fsm-check docs/fsm ./internal/...

# Tracked design-quality outcomes (ROADMAP items 2 and 3): non-test line
# counts of the checkers, of the protocol stack they check, of the
# experiment/explorer harness, of the serving runtime under tpcserve, of
# the other command-line tools, of the proof side (the paper's
# contribution: internal/core plus the encoded thesis), and of the rest —
# every other non-test Go file of the module outside bench/ (the simulator,
# the model checker, conformance, checkpoint, workload, the mutant catalogue,
# examples), so a new
# package cannot grow unnoticed. The CI lint job
# runs this and fails when any of the seven outgrows its budget — the sizes
# the shared analysis core (PR 12), the shared sweep/witness/replay
# harness (PR 13), the one-commit-path merge (PR 14: shared tpc endpoint,
# one delivery recorder, no tpcserve mode flags), the retirement of the
# second benchmark harness (PR 18), the one-discharge-path merge (PR 19:
# the elaborator stops proving, tpcsim deleted), the one-way-to-bring-
# a-node-up merge (PR 21: constructors recover, one WAL redo fold) and the
# one-fan-out merge (PR 22: the all-cohorts arm and the cohorts' static
# peer list deleted) landed at; raise one only with a reason. The one
# raise so far: HARNESS 3028 -> 3044 in PR 22, exactly the 16 lines of the
# durability oracle's missing-effects check — a check that was missing is
# not what the budget exists to stop. PR 23 (one crash) lowered two:
# STACK 4334 -> 4333, recovery no longer looking for leftover map entries;
# HARNESS 3044 -> 3019, explore.Schedule.GroupCommit and everything that
# branched on it (runner setup loop, oracle fold switch, E19's third arm).
# PR 24 (one journal) lowered two: STACK 4333 -> 4319, the
# durable-on-return mode of internal/stable and its full-copy snapshot
# replaced by the unsynced window, with 2PC's forced w1 counted;
# SERVING 2063 -> 2062, tpcserve's SetGroupCommit call.
# Standardizing each clause apart once lowered one: PROOF 6462 -> 6377,
# the prover's sort-blind clausification cache and clause-weight helper.
# One implementation per building block (the standalone broadcast,
# consensus, election, detector and snapshot packages deleted; conformance
# observes the served engine) lowered four and added REST at its landed
# value: HARNESS 3019 -> 2996 (E18's ablation flag, the send-log switch),
# SERVING 2062 -> 2002 (LocalTime, UpNodes, DriftClock and Clock left the
# runtime boundary; the caller-less tcp.WriteFrame), TOOLS 1492 -> 1489,
# PROOF 6377 -> 6364 (the duplicate block-name list, the unused SpecOf).
# One ablation mechanism for the lock layer (E18's underlock and E20's
# lock-wait became internal/mutant catalogue entries) lowered four and
# raised one: ANALYSIS 6512 -> 6433 (lockcheck.CrossValidate), STACK
# 4319 -> 4215 (txn's four switches, canonicalOrder, runOps's resume,
# kvstore's PutUnderlocked pair), HARNESS 2996 -> 2845 (three Schedule
# fields, explore.Witness, E18's witness, E20's in-process arms), TOOLS
# 1489 -> 1485; REST 3090 -> 3419, exactly internal/mutant's own 329 lines
# (its catalogue and the runner that judges it).
# One ablation mechanism for the commit protocol (tpc.Config's NaiveTimeouts
# and UnsafeTermination became internal/mutant catalogue entries) lowered
# two and raised one: STACK 4215 -> 4177 (both switches, their branches and
# suppressions), HARNESS 2845 -> 2810 (two explorer protocols and their
# crash-at-send bias, E15's per-protocol rows, E20's second Judge call);
# REST 3419 -> 3490: the two catalogue entries (+31) and a runner that
# judges several mutants in one call, each gate's control once, a package's
# gates in one go test and the lint gates in one speccatlint run (+58),
# less conformance's golden reading and naive sweep (-18).
# The allocation-light given-clause loop raised two and lowered one: PROOF
# 6364 -> 6382, the key encoder that writes into a reused buffer and sorts
# literal spans in place, with the sort bytes that make the duplicate key
# sort-aware, and Subst's shared argument walk that allocates only on the
# first changed argument (+18); REST 3490 -> 3495, exactly the two prover
# catalogue entries' own lines (sort-blind key, key literals unsorted);
# SERVING 2002 -> 2001, the live timer's cancelled flag paid for by a
# shorter finish and Cancel.
# The no-wait lock manager (a conflicting request is refused, never
# queued) lowered five: ANALYSIS 6433 -> 5856 (lockcheck's lock-order
# rule and the flow walker's loop hook and must-join value test it alone
# used; portcheck's send-order rule, dominated in the kill matrix), STACK
# 4177 -> 3996 (locking's wait queue, pump, waits-for detector and
# counters; kvstore's five unreachable error arms), HARNESS 2810 -> 2790
# (E20's mutant arms), TOOLS 1485 -> 1479 (tpcverify's printing of
# them), REST 3495 -> 3457 (four catalogue entries and their edits).
# Looking a resolvent up before building it raised two: PROOF 6382 -> 6520
# for the literal index, the resolve/factor pair that simplifies, sizes and
# keys a candidate under the unifier (Subst.EqualAtoms, Subst.Size, the one
# canonical encoder taking a substitution), the discard counters that keep
# a drained queue from reading as saturation, and logic/logictest (+48),
# the random-term generator the logic and prover property tests share;
# deleted with it: resolvents and the map-based Subst helpers (cloneSubst,
# the map copies in Unify, UnifyAtoms and ApplyFormula). REST 3457 -> 3468,
# exactly the three new prover catalogue entries.
# One sync primitive in the commit engine lowered one and raised one: STACK
# 3996 -> 3995, endpoint.sync and its four blocking call sites folded into
# forceThen continuations, paying for the cohort's pending-force flag, the
# decided reply's write-ahead and stable's rule that a callback never runs
# over a failed journal write or fsync; REST 3468 -> 3483, exactly the five
# tpc catalogue entries, one per forced announcement.
# A decided transaction costing the coordinator only its decision raised
# three: STACK 3995 -> 4015, the coordinator deleting its record once the
# decision is announced (BeginWith's and StateOf's reading of the decision
# it keeps) and the master's shared decided marker; SERVING 2001 -> 2032,
# rt/live's Cancel forgetting its timer (stop and forget split out, so
# Close can stop timers under the lock it holds) and tpcserve's one
# watchdog timer per request, stopped on return, in place of time.After;
# REST 3483 -> 3492, exactly the two new catalogue entries.
# One checker for the spec language (strict elaboration; internal/core/
# speclint, its second symbol table, deleted) lowered two and raised one:
# PROOF 6520 -> 5787, speclint's 754 lines less the elaborator's renames
# helper, which rejects a rename of an undeclared symbol or of one symbol
# twice; TOOLS 1479 -> 1422, speccatlint's spec layer, -werror and .sw
# handling and speccat's -lint; REST 3492 -> 3505, exactly the catalogue
# entry that corrupts a corpus axiom and the mutant runner's check that a
# lint gate names a layer.
# One syscall per burst raised two: SERVING 2032 -> 2061, the peer writer
# taking every queued frame into one reused buffer per conn.Write (its
# ready/take pair and the count of frames still queued at stop), the
# buffered peer reader, DecodeBody keeping the header of a frame whose
# payload fails so readLoop charges the sender, live.After's zero-delay
# hand-off and the client port's flushing reader; REST 3505 -> 3507,
# exactly the catalogue entry for a zero-delay hand-off that ignores Cancel.
# The commit request carrying the work lowered one and raised two: STACK
# 4015 -> 3932, txn's work round deleted (three kinds and their JSON
# codecs, the master's work timer and its handler, the site's handler,
# failWork/runOps, the unstarted-submission restart, the unread Unhandled
# counters and Site.failed) less tpc's opaque body, its hook and the
# abort on a refused request, and txn's length-prefixed body codec;
# HARNESS 2790 -> 2791, E8's crash placed at a protocol event (the first
# yes-vote) instead of 25 ticks after the submission; REST 3507 -> 3521,
# conformance's crash sweep placed at a protocol event of each seed's
# fault-free run (one probe per seed) instead of at a fixed tick, and its
# reading of a commit request's operations out of the body.
# One runtime boundary and one deterministic runtime lowered five:
# ANALYSIS 5856 -> 5852, durcheck's Broadcast send arm; STACK 3932 ->
# 3926, both kvstore Stable accessors; HARNESS 2791 -> 2749, E16's
# replayNet and its stubs (the replay runs on an unstepped simnet) less
# the record/replay split the negative control feeds; SERVING 2061 ->
# 2023, rt.Transport's Broadcast and Deliver, rt.Quiescer and Broadcast
# on live and tcp; REST 3521 -> 3516, simnet's Broadcast and
# RunToQuiescence less checkpoint's two Send loops and the gathering
# check identifying a state-vector round by the sites it asks.
ANALYSIS_LOC_BUDGET = 5852
STACK_LOC_BUDGET = 3926
HARNESS_LOC_BUDGET = 2749
SERVING_LOC_BUDGET = 2023
TOOLS_LOC_BUDGET = 1422
PROOF_LOC_BUDGET = 5787
REST_LOC_BUDGET = 3516
loc_count = find $(1) -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | xargs cat | wc -l
loc:
	@a=$$($(call loc_count,internal/analysis)); \
	s=$$($(call loc_count,$(addprefix internal/,tpc txn kvstore locking wal stable recovery))); \
	h=$$($(call loc_count,internal/experiments internal/explore)); \
	r=$$($(call loc_count,internal/rt cmd/tpcserve)); \
	c=$$($(call loc_count,$(filter-out cmd/tpcserve,$(wildcard cmd/*)))); \
	p=$$($(call loc_count,internal/core internal/thesis)); \
	x=$$(( $$($(call loc_count,internal cmd examples doc.go)) - a - s - h - r - c - p )); \
	echo "internal/analysis: $$a non-test lines (budget $(ANALYSIS_LOC_BUDGET))"; \
	echo "protocol stack (tpc txn kvstore locking wal stable recovery): $$s non-test lines (budget $(STACK_LOC_BUDGET))"; \
	echo "harness (experiments explore): $$h non-test lines (budget $(HARNESS_LOC_BUDGET))"; \
	echo "serving runtime (rt cmd/tpcserve): $$r non-test lines (budget $(SERVING_LOC_BUDGET))"; \
	echo "tools (cmd minus tpcserve): $$c non-test lines (budget $(TOOLS_LOC_BUDGET))"; \
	echo "proof side (core thesis): $$p non-test lines (budget $(PROOF_LOC_BUDGET))"; \
	echo "rest (sim simnet mc conformance checkpoint workload mutant examples): $$x non-test lines (budget $(REST_LOC_BUDGET))"; \
	test $$a -le $(ANALYSIS_LOC_BUDGET) && test $$s -le $(STACK_LOC_BUDGET) && \
	test $$h -le $(HARNESS_LOC_BUDGET) && test $$r -le $(SERVING_LOC_BUDGET) && \
	test $$c -le $(TOOLS_LOC_BUDGET) && test $$p -le $(PROOF_LOC_BUDGET) && \
	test $$x -le $(REST_LOC_BUDGET)

# Regenerate docs/fsm from the //fsm:* annotations in the sources. The
# output is deterministic; commit it, and CI fails when it drifts.
fsm:
	$(GO) run ./cmd/speccatlint -fsm docs/fsm ./internal/...

# Fail (without writing) when docs/fsm is stale relative to the sources.
fsm-check:
	$(GO) run ./cmd/speccatlint -fsm-check docs/fsm ./internal/...

# Deterministic fault-exploration smoke suite: the explorer must rediscover
# 2PC blocking end to end, full 3PC must run clean, and the shrunk 2PC
# counterexample must replay byte-for-byte. Budget counts simulated runs,
# not wall time. The naive-timeouts split and the two ablation goldens
# (naive3pc_atomicity.json, unsafe_term_atomicity.json) belong to mutants:
# on the served tree those goldens run clean, and make mutants checks that
# each replays byte-for-byte on its mutant and the 3PC sweep splits there.
explore:
	$(GO) run ./cmd/tpcexplore -protocol 2pc -seeds 80 -budget 400 -expect progress
	$(GO) run ./cmd/tpcexplore -protocol 3pc -seeds 80 -budget 400 -expect none
	$(GO) run ./cmd/tpcexplore -replay internal/explore/testdata/2pc_blocking.json

# The mutant catalogue's kill matrix: every catalogued mutant applied to a
# copy of the module, each kill gate failing on it, each spare gate passing,
# every gate passing unmutated. The test prints the mutant × gate matrix
# (EXPERIMENTS.md, "Mutant catalogue"); plain go test ./... runs it too.
mutants:
	$(GO) test -count=1 -v -run 'TestCatalogue|TestEditsApplyOnce|TestGateNamingNoTestIsAnError|TestGateNamingNoLayerIsAnError' ./internal/mutant

# bench/ is a nested module the root build, vet and tests never see, yet
# it pins constructor and option names of this module (BENCHMARK.json).
# Compile it (binary discarded: nothing may be written under bench/) and
# vet it against the working tree, so an API edit beside a pinned name
# fails here instead of in the benchmark.
bench-build:
	cd bench && $(GO) build -o /dev/null ./... && $(GO) vet ./...

# The benchmark's own tests: every workload for a short window plus one
# traced run against real tpcserve processes — checks that bench/ still runs.
bench-test:
	cd bench && $(GO) test ./...

# The full tier-1 gate: everything CI runs.
verify: build bench-build bench-test lint test race explore

# Serving-path knobs for the convenience targets below. A real deployment
# runs one `make serve NODE=n` per machine with the same CLUSTER map;
# node 1 is the coordinator.
NODE ?= 1
CLUSTER ?= 1=127.0.0.1:7101,2=127.0.0.1:7102,3=127.0.0.1:7103,4=127.0.0.1:7104
CLIENT ?= 127.0.0.1:720$(NODE)
DATA ?=
LOADADDR ?= 127.0.0.1:7201
TXNS ?= 500

# Run one cluster node (tpc/txn/kvstore over real TCP). Example 4-node
# local cluster: `make serve NODE=1 &`, ... `make serve NODE=4 &`.
serve:
	$(GO) run ./cmd/tpcserve -node $(NODE) -cluster "$(CLUSTER)" -client $(CLIENT) $(if $(DATA),-data $(DATA))

# Drive the load generator at a running cluster's coordinator.
load:
	$(GO) run ./cmd/tpcload -addr $(LOADADDR) -txns $(TXNS)

# Decoder fuzzers (wire frames, the work and read bodies a commit request
# and a yes-vote carry, the stable-storage journal and the write-ahead
# log) with a bounded budget (CI serve-smoke runs this; the checked-in
# seed corpora under internal/rt/tcp/testdata/fuzz,
# internal/txn/testdata/fuzz, internal/stable/testdata/fuzz and
# internal/wal/testdata/fuzz replay on every plain `go test`).
fuzz-wire:
	$(GO) test -run '^$$' -fuzz FuzzFrameDecode -fuzztime 10s ./internal/rt/tcp
	$(GO) test -run '^$$' -fuzz FuzzReadFrame -fuzztime 10s ./internal/rt/tcp
	$(GO) test -run '^$$' -fuzz FuzzWorkBody -fuzztime 10s ./internal/txn
	$(GO) test -run '^$$' -fuzz FuzzJournalReplay -fuzztime 10s ./internal/stable
	$(GO) test -run '^$$' -fuzz FuzzWALDecode -fuzztime 10s ./internal/wal
