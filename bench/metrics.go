package main

// The metric names and units, in one table. BENCHMARK.json repeats them
// with directions and bounds; bench_test.go fails when the two differ.

type metricDef struct {
	name, unit string
}

var workloadNames = []string{"durable_closed", "mem_closed", "durable_open", "verify_corpus"}

// endToEndMetrics are printed by every workload with --trace 0. On the
// serving workloads an operation is one distributed transaction; on
// verify_corpus it is one verification request (README.md has the table).
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"rss_mb", "MB"},
}

// perLayerMetrics are printed with --trace 1. The names are module names.
// A metric that does not apply to the workload (prover.* on a serving
// workload, everything else on verify_corpus) is printed as 0.
var perLayerMetrics = []metricDef{
	// The traced in-process cluster, per committed transaction.
	{"client.txn_p50_ms", "ms"},
	{"client.txn_p99_ms", "ms"},
	{"client.txn_p999_ms", "ms"},
	{"client.read_p50_ms", "ms"},
	{"client.write_p50_ms", "ms"},
	{"client.inc_p50_ms", "ms"},
	{"tcp.frames_per_txn", "count"},
	{"tcp.bytes_per_txn", "B"},
	{"tcp.send_us", "us"},
	{"tcp.wire_us", "us"},
	{"tcp.dropped", "count"},
	{"tcp.reconnects", "count"},
	{"codec.encode_us", "us"},
	{"codec.decode_us", "us"},
	{"codec.bytes_per_msg", "B"},
	{"tpc.msgs_per_txn", "count"},
	{"tpc.coord_busy_us_per_txn", "us"},
	{"tpc.cohort_busy_us_per_txn", "us"},
	{"tpc.handler_us.commitreq", "us"},
	{"tpc.handler_us.voteyes", "us"},
	{"tpc.handler_us.prepare", "us"},
	{"tpc.handler_us.ack", "us"},
	{"tpc.handler_us.commit", "us"},
	{"tpc.timers_fired_per_txn", "count"},
	{"txn.work_busy_us_per_txn", "us"},
	{"live.callbacks_per_txn", "count"},
	{"stable.syncs_per_txn", "count"},
	{"stable.batch_size_p50", "count"},
	{"stable.journal_bytes_per_txn", "B"},
	{"trace.overhead_share", "share"},
	{"budget.accounted_share", "share"},
	// Layer drivers: direct timed calls.
	{"stable.put_us", "us"},
	{"stable.fsync_us", "us"},
	{"stable.replay_us_per_rec", "us"},
	{"stable.replay_mb_per_s", "MB/s"},
	{"wal.append_us", "us"},
	{"wal.logical_append_us", "us"},
	{"wal.commit_us", "us"},
	{"wal.recover_us_per_rec", "us"},
	{"wal.allocs_per_update", "count"},
	{"locking.acquire_ns.read", "ns"},
	{"locking.acquire_ns.write", "ns"},
	{"locking.acquire_ns.inc", "ns"},
	{"locking.release_all_ns", "ns"},
	{"locking.conflict_rate", "share"},
	{"kvstore.txn_us", "us"},
	{"kvstore.shards_touched_per_txn", "count"},
	{"tcp.encode_frame_ns", "ns"},
	{"tcp.decode_frame_ns", "ns"},
	{"tcp.frame_allocs", "count"},
	{"tcp.loopback_rtt_us", "us"},
	{"live.hop_us", "us"},
	{"sim.msgs_per_commit", "count"},
	{"sim.syncs_per_commit", "count"},
	{"sim.commits_per_ktick", "count"},
	{"sim.us_per_commit", "us"},
	{"sim.allocs_per_commit", "count"},
	{"gen.late_share", "share"},
	// The proof pipeline (verify_corpus).
	{"speclang.elaborate_ms", "ms"},
	{"prover.corpus_verify_ms", "ms"},
	{"provesched.corpus_verify_par_ms", "ms"},
	{"provesched.speedup", "ratio"},
	{"prover.monolithic_ms", "ms"},
	{"prover.serialize_ms", "ms"},
	{"prover.csm_ms", "ms"},
	{"prover.rbr_ms", "ms"},
	{"prover.generated", "count"},
	{"prover.retained", "count"},
	{"prover.iterations", "count"},
	{"prover.allocs_per_corpus", "count"},
}

var metricUnits = func() map[string]string {
	m := map[string]string{}
	for _, list := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
		for _, d := range list {
			m[d.name] = d.unit
		}
	}
	return m
}()
