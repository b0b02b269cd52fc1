package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"speccat/internal/kvstore"
	"speccat/internal/locking"
	"speccat/internal/rt"
	"speccat/internal/rt/live"
	"speccat/internal/rt/tcp"
	"speccat/internal/sim"
	"speccat/internal/simnet"
	"speccat/internal/stable"
	"speccat/internal/tpc"
	"speccat/internal/txn"
	"speccat/internal/wal"
)

// Layer drivers: direct timed calls into one layer at a time, with keys
// and values cut from the same generated stream the cluster is driven
// with. They run after the traced cluster has shut down, on an otherwise
// idle process.

// driverCounts are the iteration counts of the drivers.
type driverCounts struct {
	puts, fsyncs, walTxns, locks, kvTxns, frames, rtts, hops, simTxns, zipfTxns int
}

func countsFor(cfg runConfig) driverCounts {
	if cfg.tiny {
		return driverCounts{puts: 100, fsyncs: 10, walTxns: 100, locks: 500, kvTxns: 100, frames: 500, rtts: 50, hops: 100, simTxns: 40, zipfTxns: 40}
	}
	return driverCounts{puts: 2000, fsyncs: 200, walTxns: 2000, locks: 5000, kvTxns: 2000, frames: 20000, rtts: 2000, hops: 5000, simTxns: 600, zipfTxns: 600}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// mallocs returns the process's cumulative allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// layerDrivers fills the driver metrics of a serving workload's traced
// run. c is the closed traced cluster, whose journals the replay driver
// reopens.
func layerDrivers(env *environment, res *result, cfg runConfig, spec servingSpec, c *tcluster) error {
	n := countsFor(cfg)
	dir := filepath.Join(env.runDir, "drivers")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	s := newStream(cfg.seed, 0, "drv")
	journal, err := driveStable(res, s, filepath.Join(dir, "driver.journal"), n)
	if err != nil {
		return err
	}
	if spec.durable {
		journal = c.journalPath(2) // what the traced windows appended on a cohort
	}
	if err := driveReplay(res, journal); err != nil {
		return err
	}
	if err := driveWAL(res, s, n); err != nil {
		return err
	}
	driveLocking(res, cfg.seed, n)
	if err := driveKV(res, s, n); err != nil {
		return err
	}
	if err := driveFrames(res, n); err != nil {
		return err
	}
	if err := driveLoopback(res, n); err != nil {
		return err
	}
	if err := driveLive(res, n); err != nil {
		return err
	}
	return driveSim(res, cfg.seed, n)
}

// timeJournal times the journal's write path on a fresh journal at path: a
// put that only reaches the OS cache (group commit), and the fsync that
// makes a batch durable, once every puts/fsyncs puts.
func timeJournal(path string, s *stream, puts, fsyncs int) (putUs, syncUs []float64, err error) {
	st, err := stable.OpenFile(path)
	if err != nil {
		return nil, nil, err
	}
	st.SetGroupCommit(true)
	for i := 0; i < puts; i++ {
		t := s.gen()
		val := []byte(strconv.FormatInt(t.newFrom, 10))
		t0 := time.Now()
		st.Put("tpc/"+t.name+"/state", val)
		putUs = append(putUs, us(time.Since(t0)))
		if i%(puts/fsyncs) == 0 {
			t0 = time.Now()
			err := st.Sync()
			syncUs = append(syncUs, us(time.Since(t0)))
			if err != nil {
				_ = st.Close()
				return nil, nil, err
			}
		}
	}
	return putUs, syncUs, st.Close()
}

// driveStable reports the journal's write path. The fsync time is also the
// disk calibration a reader needs to tell a noisy disk from a regression.
// It returns the journal it wrote.
func driveStable(res *result, s *stream, path string, n driverCounts) (string, error) {
	puts, syncs, err := timeJournal(path, s, n.puts, n.fsyncs)
	if err != nil {
		return "", err
	}
	res.set("stable.put_us", median(puts))
	res.set("stable.fsync_us", median(syncs))
	return path, nil
}

// driveReplay times stable.OpenFile on a journal: the restart path.
func driveReplay(res *result, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	recs := bytes.Count(raw, []byte{'\n'})
	if recs == 0 {
		return fmt.Errorf("replay driver: %s holds no records", path)
	}
	var times []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		st, err := stable.OpenFile(path)
		d := time.Since(t0)
		if err != nil {
			return err
		}
		if err := st.Close(); err != nil {
			return err
		}
		times = append(times, d.Seconds())
	}
	d := median(times)
	res.set("stable.replay_us_per_rec", d*1e6/float64(recs))
	res.set("stable.replay_mb_per_s", float64(len(raw))/(1<<20)/d)
	res.extra("stable.replay_records", float64(recs), "count")
	return nil
}

// driveWAL times the write-ahead log over an in-memory medium: physical
// and logical update records, the commit record, and recovery.
func driveWAL(res *result, s *stream, n driverCounts) error {
	st := stable.NewStore()
	log := wal.New(st)
	db := map[string]string{}
	var appends, logical, commits []float64
	updates := 0
	m0 := mallocs()
	for i := 0; i < n.walTxns; i++ {
		t := s.gen()
		if err := log.Begin(t.name); err != nil {
			return err
		}
		t0 := time.Now()
		if err := log.LoggedUpdate(t.name, db, s.keys[t.from], strconv.FormatInt(t.newFrom, 10)); err != nil {
			return err
		}
		t1 := time.Now()
		if err := log.LoggedApply(t.name, db, s.keys[t.to], wal.OpInc, strconv.Itoa(transferAmount)); err != nil {
			return err
		}
		t2 := time.Now()
		if err := log.Commit(t.name); err != nil {
			return err
		}
		t3 := time.Now()
		appends = append(appends, us(t1.Sub(t0)))
		logical = append(logical, us(t2.Sub(t1)))
		commits = append(commits, us(t3.Sub(t2)))
		updates += 2
	}
	allocs := float64(mallocs() - m0)
	t0 := time.Now()
	if _, _, err := wal.Recover(st); err != nil {
		return err
	}
	rec := time.Since(t0)
	res.set("wal.append_us", median(appends))
	res.set("wal.logical_append_us", median(logical))
	res.set("wal.commit_us", median(commits))
	res.set("wal.recover_us_per_rec", us(rec)/float64(st.LogLen()))
	res.set("wal.allocs_per_update", allocs/float64(updates))
	return nil
}

// driveLocking times an uncontended acquire in each lock mode the stream
// uses, and releasing a transaction's two locks, on a lock manager that
// holds what one shard's manager holds in the cluster: the accounts of
// every connection that hash to one shard of one site.
func driveLocking(res *result, seed int64, n driverCounts) {
	sites := []rt.NodeID{2, 3, 4}
	var keys []string
	for conn := 0; conn < loadConns(); conn++ {
		for _, key := range newStream(seed, conn, "").keys {
			if txn.SiteFor(sites, key) == sites[0] && kvstore.ShardOf(key, siteShards) == 0 {
				keys = append(keys, key)
			}
		}
	}
	modes := []struct {
		name string
		mode locking.Mode
	}{{"read", locking.Read}, {"write", locking.Write}, {"inc", locking.IncMode}}
	var release []float64
	for _, m := range modes {
		mgr := locking.NewManager()
		var acquire []float64
		for i := 0; i < n.locks; i++ {
			name := "l" + strconv.Itoa(i)
			k1, k2 := keys[i%len(keys)], keys[(i+1)%len(keys)]
			t0 := time.Now()
			_, _ = mgr.Acquire(name, k1, m.mode, nil)
			_, _ = mgr.Acquire(name, k2, m.mode, nil)
			t1 := time.Now()
			mgr.ReleaseAll(name)
			t2 := time.Now()
			acquire = append(acquire, float64(t1.Sub(t0).Nanoseconds())/2)
			release = append(release, float64(t2.Sub(t1).Nanoseconds()))
		}
		res.set("locking.acquire_ns."+m.name, median(acquire))
	}
	res.set("locking.release_all_ns", median(release))
	res.extra("locking.manager_keys", float64(len(keys)), "count")
}

// driveKV times one local transaction branch on a 4-shard store over an
// in-memory medium: Begin, two Puts, Commit.
func driveKV(res *result, s *stream, n driverCounts) error {
	db, err := kvstore.OpenShards(stable.NewStore(), siteShards)
	if err != nil {
		return err
	}
	var times []float64
	touched := 0
	for i := 0; i < n.kvTxns; i++ {
		t := s.gen()
		t0 := time.Now()
		if err := db.Begin(t.name); err != nil {
			return err
		}
		if err := db.Put(t.name, s.keys[t.from], strconv.FormatInt(t.newFrom, 10)); err != nil {
			return err
		}
		if err := db.Put(t.name, s.keys[t.to], strconv.FormatInt(t.newTo, 10)); err != nil {
			return err
		}
		touched += len(db.TouchedShards(t.name))
		if err := db.Commit(t.name); err != nil {
			return err
		}
		times = append(times, us(time.Since(t0)))
	}
	res.set("kvstore.txn_us", median(times))
	res.set("kvstore.shards_touched_per_txn", float64(touched)/float64(n.kvTxns))
	return nil
}

// wireCodec is a codec with both engines' kinds registered.
func wireCodec() (*tcp.Codec, error) {
	codec := tcp.NewCodec()
	if err := tpc.RegisterWire(codec); err != nil {
		return nil, err
	}
	if err := txn.RegisterWire(codec); err != nil {
		return nil, err
	}
	return codec, nil
}

// protocolPayload builds a tpc payload. Its type is unexported, so it is
// obtained the way a receiver obtains it: from the kind's decoder.
func protocolPayload(codec *tcp.Codec, txnName string) (any, error) {
	return codec.Decode(tpc.KindPrepare, []byte(`{"Txn":"`+txnName+`"}`))
}

// driveFrames times the frame codec on a prepare message.
func driveFrames(res *result, n driverCounts) error {
	codec, err := wireCodec()
	if err != nil {
		return err
	}
	payload, err := protocolPayload(codec, "c0t12345")
	if err != nil {
		return err
	}
	msg := rt.Message{From: 1, To: 2, Kind: tpc.KindPrepare, Payload: payload, SentAt: 12345}
	const rounds = 5
	per := n.frames / rounds
	var enc, dec, allocs []float64
	for r := 0; r < rounds; r++ {
		var frame []byte
		m0 := mallocs()
		t0 := time.Now()
		for i := 0; i < per; i++ {
			if frame, err = tcp.EncodeFrame(codec, msg); err != nil {
				return err
			}
		}
		t1 := time.Now()
		for i := 0; i < per; i++ {
			if _, _, err = tcp.DecodeFrame(codec, frame); err != nil {
				return err
			}
		}
		t2 := time.Now()
		enc = append(enc, float64(t1.Sub(t0).Nanoseconds())/float64(per))
		dec = append(dec, float64(t2.Sub(t1).Nanoseconds())/float64(per))
		allocs = append(allocs, float64(mallocs()-m0)/float64(per))
	}
	res.set("tcp.encode_frame_ns", median(enc))
	res.set("tcp.decode_frame_ns", median(dec))
	res.set("tcp.frame_allocs", median(allocs))
	return nil
}

// pingPong measures round trips between two nodes of a transport: node 1
// sends a prepare, node 2's handler answers with an ack, node 1's handler
// reports the arrival.
func pingPong(a, b rt.Transport, payload any, n int) ([]float64, error) {
	back := make(chan struct{}, 1)
	if err := b.SetHandler(2, func(m rt.Message) { _ = b.Send(2, 1, tpc.KindAck, m.Payload) }); err != nil {
		return nil, err
	}
	if err := a.SetHandler(1, func(rt.Message) { back <- struct{}{} }); err != nil {
		return nil, err
	}
	var rtts []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := a.Send(1, 2, tpc.KindPrepare, payload); err != nil {
			return nil, err
		}
		select {
		case <-back:
		case <-time.After(10 * time.Second):
			return nil, fmt.Errorf("ping %d was never answered", i)
		}
		rtts = append(rtts, us(time.Since(t0)))
	}
	return rtts, nil
}

// driveLoopback times a frame round trip between two tcp transports over
// loopback: encode, write, read, decode and mailbox, twice.
func driveLoopback(res *result, n driverCounts) error {
	addrs, err := reservePorts(2)
	if err != nil {
		return err
	}
	cluster := map[rt.NodeID]string{1: addrs[0], 2: addrs[1]}
	var nets []*tcp.Net
	defer func() {
		for _, t := range nets {
			t.Close()
		}
	}()
	var payload any
	for id := rt.NodeID(1); id <= 2; id++ {
		codec, err := wireCodec()
		if err != nil {
			return err
		}
		if payload, err = protocolPayload(codec, "c0t12345"); err != nil {
			return err
		}
		t, err := tcp.New(tcp.Options{Local: id, Cluster: cluster, Codec: codec, Backoff: tcp.DefaultBackoff()})
		if err != nil {
			return err
		}
		nets = append(nets, t)
		if err := t.Start(); err != nil {
			return err
		}
		t.AddNode(id, nil)
	}
	rtts, err := pingPong(nets[0], nets[1], payload, n.rtts)
	if err != nil {
		return fmt.Errorf("loopback driver: %w", err)
	}
	// The first round trips dial the two connections.
	res.set("tcp.loopback_rtt_us", median(rtts[len(rtts)/10:]))
	return nil
}

// driveLive times one mailbox hop of the live runtime: half a round trip
// between two event loops.
func driveLive(res *result, n driverCounts) error {
	t := live.New(live.DefaultOptions())
	defer t.Close()
	t.AddNode(1, nil)
	t.AddNode(2, nil)
	rtts, err := pingPong(t, t, struct{}{}, n.hops)
	if err != nil {
		return fmt.Errorf("live driver: %w", err)
	}
	res.set("live.hop_us", median(rtts)/2)
	return nil
}

// simRun drives a sharded, group-committed cluster on the deterministic
// simulator with `clients` closed-loop clients until total transactions
// have been decided. next yields each transaction's name and operations.
type simRun struct {
	committed, aborted int
	sent, syncs        int
	ticks              rt.Time
	wall               time.Duration
	allocs             uint64
}

func runSim(seed int64, clients, total int, next func(client int, c *txn.Cluster) (string, []txn.Op)) (*simRun, error) {
	net := simnet.New(sim.NewScheduler(seed), simnet.DefaultOptions())
	cfg := tpc.Config{Protocol: tpc.ThreePhase, ScopedParticipants: true}
	c, err := txn.NewShardedClusterOn(net, clusterNodes-1, cfg, siteShards)
	if err != nil {
		return nil, err
	}
	for _, id := range net.Nodes() {
		st, err := net.Store(id)
		if err != nil {
			return nil, err
		}
		st.SetGroupCommit(true)
	}
	run := &simRun{}
	started := 0
	var submitErr error
	var submit func(client int)
	submit = func(client int) {
		if started >= total || submitErr != nil {
			return
		}
		started++
		name, ops := next(client, c)
		err := c.Master.Submit(name, ops, func(r *txn.Result) {
			if r.Decision == tpc.DecisionCommit {
				run.committed++
			} else {
				run.aborted++
			}
			// The next transaction leaves from a fresh event, not from
			// inside the coordinator's decision path.
			net.After(c.MasterID, 0, func() { submit(client) })
		})
		if err != nil {
			submitErr = err
		}
	}
	m0 := mallocs()
	t0 := time.Now()
	for cl := 0; cl < clients; cl++ {
		cl := cl
		net.After(c.MasterID, 0, func() { submit(cl) })
	}
	c.Run()
	run.wall = time.Since(t0)
	run.allocs = mallocs() - m0
	if submitErr != nil {
		return nil, submitErr
	}
	run.sent, _, _ = net.Stats()
	for _, id := range net.Nodes() {
		st, err := net.Store(id)
		if err != nil {
			return nil, err
		}
		run.syncs += st.Syncs()
	}
	run.ticks = net.Now()
	if run.committed+run.aborted != total {
		return nil, fmt.Errorf("simulator: %d of %d transactions decided", run.committed+run.aborted, total)
	}
	return run, nil
}

// simOps maps a call's operations onto the simulated cluster's sites.
func simOps(c *txn.Cluster, cl call) []txn.Op {
	ops := make([]txn.Op, len(cl.ops))
	for i, o := range cl.ops {
		ops[i] = txn.Op{Site: c.SiteFor(o.key), Key: o.key, Value: o.arg, IsWrite: o.verb == "WRITE"}
		if o.verb == "INC" {
			ops[i].Class = txn.ClassInc
		}
	}
	return ops
}

// driveSim runs the stream on the simulator, where counts repeat exactly.
func driveSim(res *result, seed int64, n driverCounts) error {
	conns := loadConns()
	streams := make([]*stream, conns)
	for i := range streams {
		streams[i] = newStream(seed, i, "sim")
	}
	run, err := runSim(seed, conns, n.simTxns, func(client int, c *txn.Cluster) (string, []txn.Op) {
		s := streams[client]
		t := s.gen()
		s.commit(t)
		return t.name, simOps(c, s.call(t))
	})
	if err != nil {
		return err
	}
	if run.aborted != 0 {
		return fmt.Errorf("simulator: %d aborts on the conflict-free stream", run.aborted)
	}
	commits := float64(run.committed)
	res.set("sim.msgs_per_commit", float64(run.sent)/commits)
	res.set("sim.syncs_per_commit", float64(run.syncs)/commits)
	res.set("sim.commits_per_ktick", commits/float64(run.ticks)*1000)
	res.set("sim.us_per_commit", us(run.wall)/commits)
	res.set("sim.allocs_per_commit", float64(run.allocs)/commits)

	return driveZipf(res, seed, n)
}

// driveZipf is the shared-key variant behind locking.conflict_rate: 8
// clients write pairs of 64 accounts drawn zipf(0.9), so lock conflicts,
// which abort, do occur.
func driveZipf(res *result, seed int64, n driverCounts) error {
	const sharedAccounts, sharedClients, theta = 64, 8, 0.9
	cdf := zipfCDF(sharedAccounts, theta)
	rnd := rng{s: streamSeed(seed, 1000)}
	seq := 0
	run, err := runSim(seed, sharedClients, n.zipfTxns, func(_ int, c *txn.Cluster) (string, []txn.Op) {
		a := zipfDraw(cdf, rnd.float())
		b := zipfDraw(cdf, rnd.float())
		for b == a {
			b = zipfDraw(cdf, rnd.float())
		}
		seq++
		ka, kb := "z.a"+strconv.Itoa(a), "z.a"+strconv.Itoa(b)
		return "z" + strconv.Itoa(seq), []txn.Op{
			{Site: c.SiteFor(ka), Key: ka, Value: strconv.Itoa(seq), IsWrite: true},
			{Site: c.SiteFor(kb), Key: kb, Value: strconv.Itoa(seq), IsWrite: true},
		}
	})
	if err != nil {
		return err
	}
	res.set("locking.conflict_rate", float64(run.aborted)/float64(run.committed+run.aborted))
	return nil
}

// zipfCDF is the cumulative distribution of zipf(theta) over n ranks.
func zipfCDF(n int, theta float64) []float64 {
	cdf := make([]float64, n)
	total := 0.0
	for i := range cdf {
		total += 1 / math.Pow(float64(i+1), theta)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return cdf
}

func zipfDraw(cdf []float64, u float64) int {
	for i, c := range cdf {
		if u < c {
			return i
		}
	}
	return len(cdf) - 1
}
