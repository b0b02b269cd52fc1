package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"speccat/internal/recovery"
	"speccat/internal/rt"
	"speccat/internal/rt/tcp"
	"speccat/internal/stable"
	"speccat/internal/tpc"
	"speccat/internal/txn"
)

// tcluster is the traced cluster: the four nodes of a tpcserve deployment
// in this process, over real loopback TCP, with the decorators of trace.go
// around every layer boundary.
type tcluster struct {
	tr      *tracer
	nodes   []*tnode // index 0 is the coordinator
	master  *txn.Master
	sites   []*txn.Site
	siteIDs []rt.NodeID
	dataDir string
}

// newTCluster wires the nodes the way cmd/tpcserve's run does, one public
// constructor after another.
func newTCluster(tr *tracer, runDir string, durable bool) (*tcluster, error) {
	addrs, err := reservePorts(clusterNodes)
	if err != nil {
		return nil, err
	}
	cluster := map[rt.NodeID]string{}
	for i, a := range addrs {
		cluster[rt.NodeID(i+1)] = a
	}
	c := &tcluster{tr: tr}
	for i := 2; i <= clusterNodes; i++ {
		c.siteIDs = append(c.siteIDs, rt.NodeID(i))
	}
	if durable {
		c.dataDir = filepath.Join(runDir, "data")
		if err := os.MkdirAll(c.dataDir, 0o755); err != nil {
			return nil, err
		}
	}
	cfg := tpc.Config{Protocol: tpc.ThreePhase, ScopedParticipants: true}
	flights := &flightTable{m: map[flightKey]flight{}}
	coordID := rt.NodeID(1)
	for i := 1; i <= clusterNodes; i++ {
		n := &tnode{id: rt.NodeID(i), tr: tr, flights: flights, codec: tcp.NewCodec(), frameOverhead: map[string]int{}}
		if durable {
			n.store, err = stable.OpenFile(c.journalPath(i))
			if err != nil {
				c.close()
				return nil, err
			}
			n.store.SetGroupCommit(true)
		}
		reg := tracedRegistry{n}
		if err := tpc.RegisterWire(reg); err != nil {
			c.close()
			return nil, err
		}
		if err := txn.RegisterWire(reg); err != nil {
			c.close()
			return nil, err
		}
		n.net, err = tcp.New(tcp.Options{
			Local: n.id, Cluster: cluster, Codec: n.codec,
			Tick: time.Millisecond, Delta: 400, Store: n.store,
			Backoff: tcp.DefaultBackoff(),
		})
		if err != nil {
			c.close()
			return nil, err
		}
		c.nodes = append(c.nodes, n)
		if err := n.net.Start(); err != nil {
			c.close()
			return nil, err
		}
		if n.store != nil {
			n.store.SetSyncDispatch(n.dispatch)
			n.store.SetOnSync(n.onSync)
		}
		net := tracedNet{n}
		net.AddNode(n.id, nil)
		if n.id == coordID {
			c.master, err = txn.NewMasterOn(net, coordID, c.siteIDs, cfg)
		} else {
			var site *txn.Site
			site, err = txn.NewShardedSiteOn(net, n.id, coordID, c.siteIDs, cfg, siteShards)
			c.sites = append(c.sites, site)
		}
		if err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

func (c *tcluster) journalPath(node int) string {
	return filepath.Join(c.dataDir, fmt.Sprintf("node%d.journal", node))
}

// close shuts every transport down (joining its event loop) and then
// closes the journals.
func (c *tcluster) close() {
	for _, n := range c.nodes {
		if n.net != nil {
			n.net.Close()
		}
	}
	for _, n := range c.nodes {
		if n.store != nil {
			_ = n.store.Close()
		}
	}
}

// journalErr reports a journal that failed to write or sync: such a run
// produces no numbers.
func (c *tcluster) journalErr() error {
	for _, n := range c.nodes {
		if n.store != nil {
			if err := n.store.JournalErr(); err != nil {
				return fmt.Errorf("node %d: %w", n.id, err)
			}
		}
	}
	return nil
}

func (c *tcluster) journalBytes() (int64, error) {
	if c.dataDir == "" {
		return 0, nil
	}
	var total int64
	for i := 1; i <= clusterNodes; i++ {
		st, err := os.Stat(c.journalPath(i))
		if err != nil {
			return 0, err
		}
		total += st.Size()
	}
	return total, nil
}

// wireTotals sums the transports' drop and reconnect counters.
func (c *tcluster) wireTotals() (dropped, reconnects uint64) {
	for _, n := range c.nodes {
		for _, peer := range n.net.Nodes() {
			st := n.net.Stats(peer)
			dropped += st.Dropped
			reconnects += st.Reconnects
		}
	}
	return dropped, reconnects
}

// dump snapshots every site's committed state on its own event loop.
func (c *tcluster) dump() (map[string]string, error) {
	state := map[string]string{}
	for i, site := range c.sites {
		site := site
		ch := make(chan recovery.State, 1)
		c.nodes[i+1].schedule("bench.dump", 0, "", func() { ch <- site.Store.Snapshot() })
		select {
		case snap := <-ch:
			for k, v := range snap {
				state[k] = v
			}
		case <-time.After(replyTimeout):
			return nil, fmt.Errorf("dump of node %d timed out", i+2)
		}
	}
	return state, nil
}

// procPort is the traced cluster's client port: what tpcserve's COMMIT
// does, minus the line protocol — Submit on the master's event loop, then
// wait for the distributed outcome.
type procPort struct{ c *tcluster }

func (p procPort) close() {}

func (p procPort) exec(cl call) (outcome, error) {
	c := p.c
	ops := make([]txn.Op, len(cl.ops))
	for i, o := range cl.ops {
		ops[i] = txn.Op{Site: txn.SiteFor(c.siteIDs, o.key), Key: o.key, Value: o.arg}
		switch o.verb {
		case "WRITE":
			ops[i].IsWrite = true
		case "INC":
			ops[i].Class = txn.ClassInc
		}
	}
	client := c.tr.begin("client.txn", 0, cl.name, 0)
	resCh := make(chan *txn.Result, 1)
	errCh := make(chan error, 1)
	c.nodes[0].schedule("client.submit", client.id, cl.name, func() {
		errCh <- c.master.Submit(cl.name, ops, func(r *txn.Result) { resCh <- r })
	})
	timeout := time.After(replyTimeout)
	select {
	case err := <-errCh:
		if err != nil {
			return outcome{}, err
		}
	case <-timeout:
		return outcome{}, fmt.Errorf("submit of %s timed out", cl.name)
	}
	select {
	case r := <-resCh:
		c.tr.end(client)
		out := outcome{committed: r.Decision == tpc.DecisionCommit, reads: map[string]string{}}
		for k, v := range r.Reads {
			if _, key, ok := strings.Cut(k, "/"); ok {
				k = key
			}
			out.reads[k] = v
		}
		return out, nil
	case <-timeout:
		return outcome{}, fmt.Errorf("%s timed out", cl.name)
	}
}

// traceServing is the per-layer run of a serving workload: the workload's
// stream on the traced cluster — first with the decorators passing
// straight through, then recording — followed by the layer drivers.
func traceServing(env *environment, name string, cfg runConfig) (*result, error) {
	spec := servingSpecs[name]
	res := newResult(name, cfg)
	conns := loadConns()
	res.Conns = conns
	// The traced windows are a fifth of the end-to-end window each.
	window := cfg.window() / 5
	warmup := warmupPerConn
	if cfg.tiny {
		warmup = 20
	}

	tr := newTracer()
	tr.on.Store(false)
	c, err := newTCluster(tr, filepath.Join(env.runDir, "traced"), spec.durable)
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			c.close()
		}
	}()
	var ports []port
	var streams []*stream
	for i := 0; i < conns; i++ {
		ports = append(ports, procPort{c})
		streams = append(streams, newStream(cfg.seed, i, ""))
	}
	if err := fund(procPort{c}, streams); err != nil {
		return nil, err
	}
	if err := firstProblem(driveCount(ports, streams, warmup)); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	drive := func() *loadResult {
		if spec.open {
			return driveOpen(ports, streams, time.Now(), window, openRate)
		}
		return driveClosed(ports, streams, time.Now(), window)
	}
	untraced := drive()
	if untraced.err != nil {
		return nil, untraced.err
	}
	journal0, err := c.journalBytes()
	if err != nil {
		return nil, err
	}
	tr.on.Store(true)
	traced := drive()
	tr.on.Store(false)
	if traced.err != nil {
		return nil, traced.err
	}
	journal1, err := c.journalBytes()
	if err != nil {
		return nil, err
	}
	if err := c.journalErr(); err != nil {
		return nil, err
	}

	res.Attempted = untraced.attempted + traced.attempted
	res.Failed = untraced.failed + traced.failed
	for _, l := range []*loadResult{untraced, traced} {
		if l.firstFail != nil {
			res.problem(l.firstFail.Error())
		}
	}
	state, err := c.dump()
	if err != nil {
		return nil, err
	}
	if err := auditDump(streams, state); err != nil {
		res.Failed++
		res.problem(err.Error())
	}
	dropped, reconnects := c.wireTotals()
	c.close()
	closed = true

	committed := len(traced.samples)
	if committed == 0 || len(untraced.samples) == 0 {
		return nil, fmt.Errorf("%s: no transaction committed in a traced window", name)
	}
	res.Counts["traced_committed"] = committed
	res.Counts["untraced_committed"] = len(untraced.samples)
	res.Spans = tr.spans()
	res.Counts["spans"] = len(res.Spans)

	lat := func(l *loadResult, kind txnKind) []float64 {
		var out []float64
		for _, s := range l.samples {
			if kind == numKinds || s.kind == kind {
				out = append(out, float64(s.lat)/float64(time.Millisecond))
			}
		}
		return out
	}
	res.set("client.txn_p50_ms", quantile(lat(traced, numKinds), 0.5))
	res.set("client.txn_p99_ms", quantile(lat(traced, numKinds), 0.99))
	res.set("client.txn_p999_ms", quantile(lat(traced, numKinds), 0.999))
	res.set("client.read_p50_ms", quantile(lat(traced, kindRead), 0.5))
	res.set("client.write_p50_ms", quantile(lat(traced, kindWrite), 0.5))
	res.set("client.inc_p50_ms", quantile(lat(traced, kindInc), 0.5))
	// The two windows ran at different times on a box whose speed changes
	// by the second, so they are compared over their quiet slices.
	tracedP50, untracedP50 := quietP50(traced.samples, window), quietP50(untraced.samples, window)
	res.extra("client.quiet_traced_p50_ms", tracedP50, "ms")
	res.extra("client.quiet_untraced_p50_ms", untracedP50, "ms")
	res.set("trace.overhead_share", (tracedP50-untracedP50)/untracedP50)
	res.set("tcp.dropped", float64(dropped))
	res.set("tcp.reconnects", float64(reconnects))
	res.set("stable.journal_bytes_per_txn", float64(journal1-journal0)/float64(committed))
	if spec.open {
		res.set("gen.late_share", float64(traced.late)/float64(traced.attempted))
	}
	var batches []float64
	for _, n := range c.nodes {
		for _, b := range n.batches {
			if b > 0 {
				batches = append(batches, float64(b))
			}
		}
	}
	res.set("stable.batch_size_p50", quantile(batches, 0.5))
	spanMetrics(res, res.Spans, float64(committed))

	if err := layerDrivers(env, res, cfg, spec, c); err != nil {
		return nil, err
	}
	return res, nil
}

// spanMetrics reduces the traced window's spans to the per-layer metrics,
// per committed transaction.
func spanMetrics(res *result, spans []span, committed float64) {
	durs := map[string][]float64{} // span name -> durations in µs
	var bytesEnc, bytesFrame float64
	var coordBusy, cohortBusy, workBusy float64
	count := map[string]float64{}
	for _, s := range spans {
		us := float64(s.dur()) / float64(time.Microsecond)
		base, kind, _ := strings.Cut(s.Name, ":")
		durs[base] = append(durs[base], us)
		if kind != "" {
			durs[s.Name] = append(durs[s.Name], us)
		}
		count[base]++
		switch base {
		case "codec.encode":
			bytesEnc += float64(s.Bytes)
		case "tcp.send":
			bytesFrame += float64(s.Bytes)
		case "handle":
			if strings.HasPrefix(kind, "tpc.") {
				count["tpc.msg"]++
			}
		}
		// Event-loop busy time: the spans that run directly on a loop.
		switch base {
		case "handle", "live.callback", "client.submit", "stable.continuation", "tpc.timer", "txn.timer":
			switch {
			case s.Node == 1:
				coordBusy += us
			case s.Name == "handle:txn.startwork":
				workBusy += us
			default:
				cohortBusy += us
			}
		}
	}
	med := func(name string) float64 { return quantile(durs[name], 0.5) }
	res.set("tcp.frames_per_txn", count["tcp.send"]/committed)
	res.set("tcp.bytes_per_txn", bytesFrame/committed)
	res.set("tcp.send_us", med("tcp.send"))
	res.set("tcp.wire_us", med("tcp.wire"))
	res.set("codec.encode_us", med("codec.encode"))
	res.set("codec.decode_us", med("codec.decode"))
	if n := count["codec.encode"]; n > 0 {
		res.set("codec.bytes_per_msg", bytesEnc/n)
	}
	res.set("tpc.msgs_per_txn", count["tpc.msg"]/committed)
	res.set("tpc.coord_busy_us_per_txn", coordBusy/committed)
	res.set("tpc.cohort_busy_us_per_txn", cohortBusy/committed)
	res.set("txn.work_busy_us_per_txn", workBusy/committed)
	for _, k := range []string{"commitreq", "voteyes", "prepare", "ack", "commit"} {
		res.set("tpc.handler_us."+k, med("handle:tpc."+k))
	}
	// A tpc timer that fires on a fault-free cluster is a spurious timeout;
	// the work timer of txn.Master always fires (it is never cancelled) and
	// is counted apart.
	res.set("tpc.timers_fired_per_txn", count["tpc.timer"]/committed)
	res.extra("txn.work_timers_fired_per_txn", count["txn.timer"]/committed, "count")
	res.set("live.callbacks_per_txn", (count["live.callback"]+count["client.submit"]+count["stable.continuation"])/committed)
	res.set("stable.syncs_per_txn", count["stable.sync"]/committed)
	budget(res, spans)
}

// budget reports how much of a transaction's client interval the trace
// accounts for: the share of the interval during which at least one span
// of that transaction (a send, a frame in flight, a handler, a callback)
// was open. The rest is unattributed: time in which no boundary the
// benchmark can see from outside was crossed — above all the wait between
// a handler queueing a SyncThen and the fsync releasing its continuation,
// which only spans inside the program can split further.
func budget(res *result, spans []span) {
	type iv struct{ a, b int64 }
	byTxn := map[string][]iv{}
	client := map[string]iv{}
	cat := map[string]float64{}
	for _, s := range spans {
		if s.Txn == "" {
			continue
		}
		if s.Name == "client.txn" {
			client[s.Txn] = iv{s.Start, s.End}
			continue
		}
		byTxn[s.Txn] = append(byTxn[s.Txn], iv{s.Start, s.End})
	}
	var shares, unattributed []float64
	for txn, c := range client {
		ivs := byTxn[txn]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		covered, at := int64(0), c.a
		for _, v := range ivs {
			a, b := v.a, v.b
			if a < at {
				a = at
			}
			if b > c.b {
				b = c.b
			}
			if b > a {
				covered += b - a
				at = b
			}
		}
		total := c.b - c.a
		if total <= 0 {
			continue
		}
		shares = append(shares, float64(covered)/float64(total))
		unattributed = append(unattributed, float64(total-covered)/float64(time.Millisecond))
	}
	// Where the accounted time goes, by kind of span, per transaction (the
	// kinds overlap in time, so these do not sum to the interval).
	n := float64(len(client))
	for _, s := range spans {
		if _, ok := client[s.Txn]; !ok || s.Name == "client.txn" {
			continue
		}
		base, _, _ := strings.Cut(s.Name, ":")
		cat[base] += float64(s.dur()) / float64(time.Microsecond)
	}
	res.set("budget.accounted_share", quantile(shares, 0.5))
	res.extra("budget.unattributed_ms", quantile(unattributed, 0.5), "ms")
	if n > 0 {
		for base, us := range cat {
			res.extra("budget."+base+"_us_per_txn", us/n, "us")
		}
	}
}
