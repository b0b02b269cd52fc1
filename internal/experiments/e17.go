package experiments

import (
	"fmt"
	"net"
	"time"

	"speccat/internal/rt"
	"speccat/internal/rt/live"
	"speccat/internal/rt/tcp"
	"speccat/internal/tpc"
)

// E17 — TCP conformance replay. E16 proved the engines behave
// identically on real goroutines; E17 pushes the same question across a
// real wire: a 1-coordinator/3-cohort cluster where every node is its
// own tcp transport on a loopback address, every message crosses a TCP
// connection through the frame codec, and a shared tracer records the
// global delivery order. The trace is then replayed through the
// deterministic simulator driving the same engine code, and the
// decisions and the byte-level durable stores of the two runs must
// agree. What this adds over E16: the wire layer (encode → TCP → decode)
// is now inside the conformance boundary, so a codec that loses
// information, reorders one connection's frames, or delivers a payload
// type the handlers don't expect shows up as divergence here.

// E17TCPConformance runs the commit stack over real TCP loopback and
// replays the recorded trace deterministically, for 3PC and the 2PC
// baseline — E16's run-and-replay body on a cluster of tcp transports.
func E17TCPConformance() ([]ConformanceRow, error) {
	return conformanceRows("e17", func(ids []rt.NodeID) (*runningCluster, error) {
		cl, err := newE17Cluster(ids, e16Tick)
		if err != nil {
			return nil, err
		}
		return &runningCluster{
			net:   func(id rt.NodeID) rt.Transport { return cl.nets[id] },
			close: cl.Close, trace: cl.tracer.Entries, frames: cl.framesSent,
		}, nil
	})
}

// reserveLoopback grabs n distinct loopback addresses by binding and
// releasing ephemeral ports (the brief unbound window is acceptable for
// an in-process experiment; real deployments configure fixed ports).
func reserveLoopback(n int) ([]string, error) {
	addrs := make([]string, n)
	listeners := make([]net.Listener, 0, n)
	defer func() {
		for _, l := range listeners {
			l.Close()
		}
	}()
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("e17: reserve port: %w", err)
		}
		listeners = append(listeners, l)
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// e17Cluster is one in-process TCP cluster: a transport per node,
// sharing a codec and a tracer.
type e17Cluster struct {
	nets   map[rt.NodeID]*tcp.Net
	tracer *live.Tracer
}

// newE17Cluster builds and starts transports for ids over loopback.
func newE17Cluster(ids []rt.NodeID, tick time.Duration) (*e17Cluster, error) {
	addrs, err := reserveLoopback(len(ids))
	if err != nil {
		return nil, err
	}
	cluster := map[rt.NodeID]string{}
	for i, id := range ids {
		cluster[id] = addrs[i]
	}
	codec := tcp.NewCodec()
	if err := tpc.RegisterWire(codec); err != nil {
		return nil, fmt.Errorf("e17: register wire: %w", err)
	}
	c := &e17Cluster{nets: map[rt.NodeID]*tcp.Net{}, tracer: &live.Tracer{}}
	for _, id := range ids {
		n, err := tcp.New(tcp.Options{
			Local: id, Cluster: cluster, Codec: codec,
			Tick: tick, Delta: 10, Tracer: c.tracer, Seed: uint64(id),
		})
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("e17: transport %d: %w", id, err)
		}
		if err := n.Start(); err != nil {
			c.Close()
			return nil, fmt.Errorf("e17: start %d: %w", id, err)
		}
		c.nets[id] = n
	}
	return c, nil
}

// Close shuts every transport down (joining all event loops).
func (c *e17Cluster) Close() {
	for _, n := range c.nets {
		n.Close()
	}
}

// framesSent sums every node's outbound frame counter.
func (c *e17Cluster) framesSent() uint64 {
	var sent uint64
	for _, n := range c.nets {
		for peer := range c.nets {
			sent += n.Stats(peer).Sent
		}
	}
	return sent
}
