package txn

// Runtime-agnostic deployment: one engine per call, on any rt.Transport.
// The simulator harness (cluster.go) wires a whole cluster in one
// process; a real deployment (cmd/tpcserve) runs one process per node,
// so it needs to construct exactly its own role — NewMasterOn for the
// coordinator process, NewShardedSiteOn for each cohort process. Both
// install the engine's handler and recovery callback on the transport, so
// after the call the node is live.

import (
	"fmt"

	"speccat/internal/kvstore"
	"speccat/internal/rt"
	"speccat/internal/tpc"
)

// NewMasterOn builds the master engine (transaction coordinator side) on
// net. The master node must already be registered on the transport
// (AddNode); siteIDs are the data sites, which may live in other
// processes.
func NewMasterOn(net rt.Transport, masterID rt.NodeID, siteIDs []rt.NodeID, cfg tpc.Config) (*Master, error) {
	m := &Master{
		net: net, id: masterID,
		coord:   tpc.NewCoordinator(net, masterID, siteIDs, cfg),
		pending: map[string]*pending{},
		scoped:  cfg.ScopedParticipants,
	}
	m.coord.OnDecide = m.onDecide
	if err := net.SetHandler(masterID, m.handle); err != nil {
		return nil, fmt.Errorf("txn: wire master %d: %w", masterID, err)
	}
	if err := net.SetRecover(masterID, m.RecoverCoordinator); err != nil {
		return nil, fmt.Errorf("txn: wire master %d: %w", masterID, err)
	}
	return m, nil
}

// NewShardedSiteOn builds one data-site engine (cohort plus local
// kvstore) on net. The site node must already be registered on the
// transport; its stable store backs the kvstore's WAL, so a site built
// over a file-journaled store recovers its committed state across real
// process restarts. The database is hash-partitioned into nshards
// independent shards (own lock manager and WAL session each) over that
// one stable store — nshards == 1 is one real shard, anything less is
// kvstore.OpenShards' error — and crash recovery reopens the same layout.
func NewShardedSiteOn(net rt.Transport, id, masterID rt.NodeID, siteIDs []rt.NodeID, cfg tpc.Config, nshards int) (*Site, error) {
	st, err := net.Store(id)
	if err != nil {
		return nil, fmt.Errorf("txn: wire site %d: %w", id, err)
	}
	store, err := kvstore.OpenShards(st, nshards)
	if err != nil {
		return nil, fmt.Errorf("txn: wire site %d: %w", id, err)
	}
	site := &Site{net: net, id: id, Store: store, masterID: masterID, failed: map[string]bool{}}
	site.cohort = tpc.NewCohort(net, id, masterID, siteIDs, cfg)
	site.cohort.Vote = func(txn string) bool { return !site.failed[txn] }
	site.cohort.OnDecide = site.applyDecision
	if err := net.SetHandler(id, site.handle); err != nil {
		return nil, fmt.Errorf("txn: wire site %d: %w", id, err)
	}
	if err := net.SetRecover(id, func() { _ = site.Recover() }); err != nil {
		return nil, fmt.Errorf("txn: wire site %d: %w", id, err)
	}
	return site, nil
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
