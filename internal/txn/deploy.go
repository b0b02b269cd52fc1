package txn

// Runtime-agnostic deployment: one engine per call, on any rt.Transport.
// The simulator harness (cluster.go) wires a whole cluster in one
// process; a real deployment (cmd/tpcserve) runs one process per node,
// so it needs to construct exactly its own role — NewMasterOn for the
// coordinator process, NewShardedSiteOn for each cohort process.
// Constructing an engine is recovering it: see wire.

import (
	"fmt"

	"speccat/internal/rt"
	"speccat/internal/tpc"
)

// NewMasterOn builds the master engine (transaction coordinator side) on
// net and recovers it from the node's stable store (RecoverCoordinator).
// The master node must already be registered on the transport (AddNode);
// siteIDs are the data sites, which may live in other processes.
func NewMasterOn(net rt.Transport, masterID rt.NodeID, siteIDs []rt.NodeID, cfg tpc.Config) (*Master, error) {
	m := &Master{
		net: net, id: masterID, sites: map[rt.NodeID]bool{},
		coord:   tpc.NewCoordinator(net, masterID, siteIDs, cfg),
		pending: map[string]*pending{},
		decided: &pending{result: &Result{Decision: tpc.DecisionCommit}},
	}
	for _, id := range siteIDs {
		m.sites[id] = true
	}
	m.coord.OnDecide = m.onDecide
	m.coord.OnVoteYes = m.onVoteYes
	if err := wire(net, masterID, m.RecoverCoordinator, func(msg rt.Message) { m.coord.HandleMessage(msg) }); err != nil {
		return nil, err
	}
	return m, nil
}

// NewShardedSiteOn builds one data-site engine (cohort plus local
// kvstore) on net and recovers it from the node's stable store
// (Site.Recover): a site built over a killed process's file journal
// settles that process's in-doubt branches before it serves. The site node
// must already be registered on the transport. The database is
// hash-partitioned into nshards shards (own lock manager and WAL session
// each) over that one store; nshards < 1 is an error. The site-list
// parameter is unused — a cohort learns each transaction's peers and its
// work from its commit request — and stays only because bench/tcluster.go
// passes it.
func NewShardedSiteOn(net rt.Transport, id, masterID rt.NodeID, _ []rt.NodeID, cfg tpc.Config, nshards int) (*Site, error) {
	site := &Site{net: net, id: id, nshards: nshards}
	site.cohort = tpc.NewCohort(net, id, masterID, cfg)
	site.cohort.Vote = site.vote
	site.cohort.OnDecide = site.applyDecision
	if err := wire(net, id, site.Recover, func(msg rt.Message) { site.cohort.HandleMessage(msg) }); err != nil {
		return nil, err
	}
	return site, nil
}

// wire brings a node up, the one way there is: the engine's recovery runs
// over whatever its stable store holds (nothing, on a cold start) on the
// caller's stack while the node has no handler — its event loop cannot
// reach a half-recovered engine — and is then installed with the handler.
func wire(net rt.Transport, id rt.NodeID, rec rt.RecoverFunc, h rt.Handler) error {
	if err := rec(); err != nil {
		return err
	}
	if err := net.SetHandler(id, h); err != nil {
		return fmt.Errorf("txn: wire node %d: %w", id, err)
	}
	return net.SetRecover(id, rec) // fails as SetHandler does: an unknown node
}

// SiteFor maps a key to its home site by stable hashing over the sorted
// site list — the placement function every front end (simulator cluster,
// tpcserve's client port, tpcload's generator) must share so the same key
// always lands on the same site.
func SiteFor(siteIDs []rt.NodeID, key string) rt.NodeID {
	h := 0
	for _, ch := range key {
		h = h*31 + int(ch)
	}
	// The remainder is folded to non-negative, not the hash: -h overflows
	// for the minimum int (a 13-byte key reaches it), while |h % n| equals
	// |h| % n for every h, so no key moves.
	i := h % len(siteIDs)
	if i < 0 {
		i = -i
	}
	return siteIDs[i]
}
