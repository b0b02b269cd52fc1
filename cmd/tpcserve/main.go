// Command tpcserve runs ONE node of a distributed transaction-processing
// cluster — the verified engines (txn master/site over tpc 3PC/2PC and
// the WAL-backed kvstore) behind real TCP, on the internal/rt/tcp
// transport. Node 1 is the coordinator (hosts the txn master and the
// client port's full command set); every other node is a cohort (hosts a
// txn site and answers DUMP on its client port).
//
// Usage:
//
//	tpcserve -node 1 -cluster "1=127.0.0.1:7101,2=127.0.0.1:7102,3=127.0.0.1:7103,4=127.0.0.1:7104" \
//	         -client 127.0.0.1:7201 [-protocol 3pc|2pc] [-data DIR] [-tick 1ms] [-delta 10] \
//	         [-shards N]
//
// Every process of one deployment passes the identical -cluster map.
// With -data, the node's stable store is journaled to
// DIR/node<N>.journal. Starting a node is recovering it: before it handles
// a frame the engine applies Fig. 3.2's failure transitions to the journal,
// settles in-doubt WAL branches and (node 1) re-announces every decided
// outcome; an unrecoverable journal is a non-zero exit.
//
// There is one commit path and one fan-out, the one the explorer and
// E8–E20 simulate: a commit protocol spans exactly the sites its
// transaction sent work to. The journal is group-committed: records are
// fsynced in batches at the protocol's divergence-mandated sync points,
// concurrent commits sharing one fsync, and the sends that wait on a batch
// re-enter the node's event loop when it lands. -shards N hash-partitions
// a cohort's database (per-shard lock managers and WAL sessions, one journal).
//
// Client port line protocol (text, one command per line):
//
//	BEGIN <txn>               -> OK            (opens a buffered transaction)
//	READ <txn> <key>          -> OK            (value arrives with DONE)
//	WRITE <txn> <key> <value> -> OK
//	INC <txn> <key> <delta>   -> OK            (commutative add under IncMode)
//	APPEND <txn> <key> <item> -> OK            (multiset add under AppendMode)
//	SADD <txn> <key> <member> -> OK            (set insert under SetInsMode)
//	COMMIT <txn>              -> DONE <txn> <COMMIT|ABORT> [site/key=value ...]
//	DUMP                      -> KV <key> <value> ... END   (local committed state)
//
// INC/APPEND/SADD are the commutative operation classes of
// locking/comm.sw: they run under their derived (self-compatible) lock
// modes, so concurrent increments of one hot key commit instead of
// conflicting the way WRITEs do.
//
// Key placement is server-side: the coordinator maps each key to its
// home site with the same stable hash the simulator harness uses
// (txn.SiteFor), so clients never name sites.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"speccat/internal/recovery"
	"speccat/internal/rt"
	"speccat/internal/rt/tcp"
	"speccat/internal/stable"
	"speccat/internal/tpc"
	"speccat/internal/txn"
)

func main() {
	node := flag.Int("node", 0, "this process's node ID (1 = coordinator)")
	clusterSpec := flag.String("cluster", "", "full cluster map: id=host:port,id=host:port,...")
	clientAddr := flag.String("client", "", "listen address for the line-protocol client port")
	protocol := flag.String("protocol", "3pc", "commit protocol: 3pc or 2pc")
	dataDir := flag.String("data", "", "journal directory for durable state (empty = in-memory)")
	tick := flag.Duration("tick", time.Millisecond, "wall duration of one protocol tick")
	delta := flag.Int("delta", 10, "message delay bound in ticks")
	shards := flag.Int("shards", 1, "hash-shard this site's database into N partitions (cohorts only)")
	flag.Parse()

	if err := run(runOptions{
		node: *node, clusterSpec: *clusterSpec, clientAddr: *clientAddr,
		protocol: *protocol, dataDir: *dataDir, tick: *tick, delta: *delta,
		shards: *shards,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "tpcserve: %v\n", err)
		os.Exit(1)
	}
}

// parseCluster parses "1=host:port,2=host:port,..." into the cluster map.
func parseCluster(spec string) (map[rt.NodeID]string, error) {
	out := map[rt.NodeID]string{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad cluster entry %q (want id=host:port)", part)
		}
		n, err := strconv.Atoi(id)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad node id %q in cluster entry %q", id, part)
		}
		if _, dup := out[rt.NodeID(n)]; dup {
			return nil, fmt.Errorf("duplicate node id %d in -cluster", n)
		}
		out[rt.NodeID(n)] = addr
	}
	if len(out) < 2 {
		return nil, fmt.Errorf("cluster needs at least a coordinator and one cohort, got %d nodes", len(out))
	}
	return out, nil
}

// server is one running node: the transport plus exactly one engine role.
type server struct {
	local   rt.NodeID
	siteIDs []rt.NodeID
	net     *tcp.Net
	master  *txn.Master // non-nil on the coordinator
	site    *txn.Site   // non-nil on cohorts
	// boot ("#<starts of this journal>") suffixes every client-chosen name:
	// the engines remember what they decided across restarts, and a client
	// reusing a name after one (bench/ does) means a new transaction.
	boot string
}

// runOptions carries the parsed command line into run.
type runOptions struct {
	node        int
	clusterSpec string
	clientAddr  string
	protocol    string
	dataDir     string
	tick        time.Duration
	delta       int
	shards      int
}

func run(o runOptions) error {
	if o.node < 1 {
		return fmt.Errorf("-node is required (>= 1)")
	}
	if o.clientAddr == "" {
		return fmt.Errorf("-client is required")
	}
	cluster, err := parseCluster(o.clusterSpec)
	if err != nil {
		return err
	}
	local := rt.NodeID(o.node)
	if _, ok := cluster[local]; !ok {
		return fmt.Errorf("-node %d not present in -cluster", o.node)
	}

	var cfg tpc.Config
	switch o.protocol {
	case "3pc":
		cfg.Protocol = tpc.ThreePhase
	case "2pc":
		cfg.Protocol = tpc.TwoPhase
	default:
		return fmt.Errorf("-protocol %q (want 3pc or 2pc)", o.protocol)
	}
	if o.shards < 1 {
		return fmt.Errorf("-shards %d (want >= 1)", o.shards)
	}

	// Cluster roles: node 1 coordinates, everyone else is a data site.
	coordID := rt.NodeID(1)
	if _, ok := cluster[coordID]; !ok {
		return fmt.Errorf("cluster has no node 1 (the coordinator)")
	}
	var siteIDs []rt.NodeID
	for id := range cluster {
		if id != coordID {
			siteIDs = append(siteIDs, id)
		}
	}
	sort.Slice(siteIDs, func(i, j int) bool { return siteIDs[i] < siteIDs[j] })

	var store *stable.Store
	if o.dataDir != "" {
		if err := os.MkdirAll(o.dataDir, 0o755); err != nil {
			return fmt.Errorf("create -data dir: %w", err)
		}
		store, err = stable.OpenFile(filepath.Join(o.dataDir, fmt.Sprintf("node%d.journal", o.node)))
		if err != nil {
			return err
		}
		defer store.Close()
	}

	codec := tcp.NewCodec()
	if err := tpc.RegisterWire(codec); err != nil {
		return err
	}
	if err := txn.RegisterWire(codec); err != nil {
		return err
	}

	tnet, err := tcp.New(tcp.Options{
		Local: local, Cluster: cluster, Codec: codec,
		Tick: o.tick, Delta: rt.Time(o.delta), Store: store,
		Backoff: tcp.DefaultBackoff(),
	})
	if err != nil {
		return err
	}
	defer tnet.Close()
	if err := tnet.Start(); err != nil {
		return err
	}
	if store != nil {
		// Pipelined group commit: the protocol engines' sync points hand
		// their durable-dependent sends to the store, whose syncer batches
		// one fsync across every in-flight transaction and re-enqueues the
		// sends on this node's event loop. Without the dispatcher each sync
		// point would stall the loop for a full fsync, serializing the
		// batch window to one transaction.
		store.SetSyncDispatch(func(fn func()) { tnet.After(local, 0, fn) })
	}

	srv := &server{local: local, siteIDs: siteIDs, net: tnet}
	st := tnet.AddNode(local, nil)
	boots, _ := st.Get("tpcserve/boots") // one byte per start
	st.Put("tpcserve/boots", append(boots, '.'))
	srv.boot = "#" + strconv.Itoa(len(boots)+1)
	if err := st.Sync(); err != nil {
		return err
	}
	role := "cohort"
	if local == coordID {
		role = "coordinator"
		srv.master, err = txn.NewMasterOn(tnet, coordID, siteIDs, cfg)
	} else {
		srv.site, err = txn.NewShardedSiteOn(tnet, local, coordID, siteIDs, cfg, o.shards)
	}
	if err != nil {
		return err
	}

	cl, err := net.Listen("tcp", o.clientAddr)
	if err != nil {
		return fmt.Errorf("client port %s: %w", o.clientAddr, err)
	}
	defer cl.Close()
	fmt.Printf("tpcserve: node %d (%s) protocol=%s wire=%s client=%s shards=%d\n",
		o.node, role, o.protocol, cluster[local], cl.Addr(), o.shards)

	go acceptClients(cl, srv)

	// Serve until interrupted; Close joins the event loop so engine state
	// quiesces before the journal closes.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("tpcserve: shutting down")
	return nil
}

// acceptClients admits line-protocol connections.
func acceptClients(l net.Listener, srv *server) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		go serveClient(conn, srv)
	}
}

// serveClient speaks the line protocol on one connection. Transactions
// are buffered per connection and submitted on COMMIT; the master runs
// them on its own event loop (rt-confine), this goroutine only shuttles.
func serveClient(conn net.Conn, srv *server) {
	defer conn.Close()
	w := bufio.NewWriter(conn)
	sc := bufio.NewScanner(flushingReader{conn, w})
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	pending := map[string][]txn.Op{}
	for sc.Scan() {
		for _, line := range srv.handleLine(strings.Fields(sc.Text()), pending) {
			fmt.Fprintln(w, line)
		}
	}
	_ = w.Flush() // the replies to the last lines; the connection closes either way
}

// flushingReader flushes the buffered replies before each read. The
// Scanner reads only once no complete line is left in its buffer, so the
// replies to lines that arrived together leave in one write.
type flushingReader struct {
	r io.Reader
	w *bufio.Writer
}

func (f flushingReader) Read(p []byte) (int, error) {
	if err := f.w.Flush(); err != nil {
		return 0, err
	}
	return f.r.Read(p)
}

// handleLine executes one client command, returning response lines.
func (srv *server) handleLine(fields []string, pending map[string][]txn.Op) []string {
	if len(fields) == 0 {
		return nil
	}
	switch fields[0] {
	case "BEGIN":
		if srv.master == nil {
			return []string{"ERR not the coordinator"}
		}
		if len(fields) != 2 {
			return []string{"ERR usage: BEGIN <txn>"}
		}
		if _, dup := pending[fields[1]]; dup {
			return []string{"ERR transaction already open on this connection"}
		}
		pending[fields[1]] = []txn.Op{}
		return []string{"OK"}
	case "READ":
		if len(fields) != 3 {
			return []string{"ERR usage: READ <txn> <key>"}
		}
		return srv.buffer(pending, fields[1], txn.Op{Site: txn.SiteFor(srv.siteIDs, fields[2]), Key: fields[2]})
	case "WRITE":
		if len(fields) != 4 {
			return []string{"ERR usage: WRITE <txn> <key> <value>"}
		}
		return srv.buffer(pending, fields[1], txn.Op{Site: txn.SiteFor(srv.siteIDs, fields[2]), Key: fields[2], Value: fields[3], IsWrite: true})
	case "INC", "APPEND", "SADD":
		if len(fields) != 4 {
			return []string{"ERR usage: " + fields[0] + " <txn> <key> <arg>"}
		}
		class := map[string]string{"INC": txn.ClassInc, "APPEND": txn.ClassAppend, "SADD": txn.ClassSetInsert}[fields[0]]
		return srv.buffer(pending, fields[1], txn.Op{Site: txn.SiteFor(srv.siteIDs, fields[2]), Key: fields[2], Value: fields[3], Class: class})
	case "COMMIT":
		if len(fields) != 2 {
			return []string{"ERR usage: COMMIT <txn>"}
		}
		ops, ok := pending[fields[1]]
		if !ok {
			return []string{"ERR no such transaction on this connection"}
		}
		delete(pending, fields[1])
		return srv.commit(fields[1], ops)
	case "DUMP":
		return srv.dump()
	default:
		return []string{"ERR unknown command " + fields[0]}
	}
}

// buffer appends one operation to an open transaction.
func (srv *server) buffer(pending map[string][]txn.Op, name string, op txn.Op) []string {
	if srv.master == nil {
		return []string{"ERR not the coordinator"}
	}
	ops, ok := pending[name]
	if !ok {
		return []string{"ERR no such transaction on this connection (BEGIN first)"}
	}
	pending[name] = append(ops, op)
	return []string{"OK"}
}

// commit submits the buffered transaction on the master's event loop and
// waits for the distributed outcome. One watchdog timer covers both waits
// and is stopped on return (see the Makefile's lint target on time.After).
func (srv *server) commit(name string, ops []txn.Op) []string {
	resCh := make(chan *txn.Result, 1)
	errCh := make(chan error, 1)
	srv.net.After(srv.local, 0, func() {
		errCh <- srv.master.Submit(name+srv.boot, ops, func(r *txn.Result) { resCh <- r })
	})
	watchdog := time.NewTimer(30 * time.Second) //lint:allow nowallclock client-port watchdog over a wall-clock serving path
	defer watchdog.Stop()
	select {
	case err := <-errCh:
		if err != nil {
			return []string{"ERR " + err.Error()}
		}
	case <-watchdog.C:
		return []string{"ERR submit dispatch timed out"}
	}
	// Re-arm for the outcome, dropping a tick that raced the dispatch.
	if !watchdog.Stop() {
		select {
		case <-watchdog.C:
		default:
		}
	}
	watchdog.Reset(60 * time.Second)
	select {
	case r := <-resCh:
		line := "DONE " + name + " " + strings.ToUpper(r.Decision.String())
		keys := make([]string, 0, len(r.Reads))
		for k := range r.Reads {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			line += " " + k + "=" + r.Reads[k]
		}
		return []string{line}
	case <-watchdog.C:
		return []string{"ERR transaction timed out"}
	}
}

// dump snapshots the local committed store on the node's event loop.
func (srv *server) dump() []string {
	if srv.site == nil {
		return []string{"END"} // the coordinator holds no data
	}
	ch := make(chan recovery.State, 1)
	srv.net.After(srv.local, 0, func() { ch <- srv.site.Store.Snapshot() })
	watchdog := time.NewTimer(30 * time.Second) //lint:allow nowallclock client-port watchdog over a wall-clock serving path
	defer watchdog.Stop()
	select {
	case state := <-ch:
		keys := make([]string, 0, len(state))
		for k := range state {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out := make([]string, 0, len(keys)+1)
		for _, k := range keys {
			out = append(out, "KV "+k+" "+state[k])
		}
		return append(out, "END")
	case <-watchdog.C:
		return []string{"ERR dump timed out"}
	}
}
