package txn

// The Cluster harness is the deterministic-simulator face of a
// distributed-transaction deployment: it owns the concrete
// simnet.Network so tests, explorers and experiments can crash sites,
// inject faults and drive the scheduler. The engines it wires (Master,
// Site) are runtime-agnostic; only this file touches the simulator,
// under reasoned rt-boundary suppressions.

import (
	"speccat/internal/sim"    //lint:allow rt-boundary sim-harness constructor: the engines speak rt.Transport, this file owns the simulator wiring
	"speccat/internal/simnet" //lint:allow rt-boundary sim-harness constructor: the engines speak rt.Transport, this file owns the simulator wiring
	"speccat/internal/tpc"
)

// Cluster is a wired deployment: one master site plus data sites.
type Cluster struct {
	Net      *simnet.Network
	Master   *Master
	Sites    map[simnet.NodeID]*Site
	MasterID simnet.NodeID
	SiteIDs  []simnet.NodeID
}

// NewCluster builds a master and n data sites (one shard each) over a
// fresh seeded network — the simulator convenience most tests use.
func NewCluster(seed int64, n int, cfg tpc.Config) (*Cluster, error) {
	sched := sim.NewScheduler(seed)
	return NewShardedClusterOn(simnet.New(sched, simnet.DefaultOptions()), n, cfg, 1)
}

// NewShardedClusterOn wires a cluster onto an existing (empty) network,
// letting callers customize network options and install failure-injection
// hooks. Every site's database is hash-partitioned into nshards
// independent shards over the site's one stable store (see
// NewShardedSiteOn). simnet.Recover re-runs the recovery each engine's
// constructor ran. A crash takes a store's unsynced tail along with the
// node's memory, as it does a killed tpcserve's.
func NewShardedClusterOn(net *simnet.Network, n int, cfg tpc.Config, nshards int) (*Cluster, error) {
	masterID := simnet.NodeID(1)
	net.AddNode(masterID, nil)
	var siteIDs []simnet.NodeID
	for i := 2; i <= n+1; i++ {
		id := simnet.NodeID(i)
		siteIDs = append(siteIDs, id)
		net.AddNode(id, nil)
	}
	c := &Cluster{Net: net, MasterID: masterID, SiteIDs: siteIDs, Sites: map[simnet.NodeID]*Site{}}

	master, err := NewMasterOn(net, masterID, siteIDs, cfg)
	if err != nil {
		return nil, err
	}
	c.Master = master

	for _, id := range siteIDs {
		site, err := NewShardedSiteOn(net, id, masterID, siteIDs, cfg, nshards)
		if err != nil {
			return nil, err
		}
		c.Sites[id] = site
	}
	return c, nil
}

// SiteFor maps a key to its home site by stable hashing (the package
// placement function, shared with the serving path).
func (c *Cluster) SiteFor(key string) simnet.NodeID {
	return SiteFor(c.SiteIDs, key)
}

// Run drives the scheduler until quiescence.
func (c *Cluster) Run() { c.Net.Scheduler().Run(0) }

// TotalOf sums integer values under keys across all sites' committed
// state (the bank-invariant helper).
func (c *Cluster) TotalOf(keys []string) int {
	total := 0
	for _, k := range keys {
		site := c.Sites[c.SiteFor(k)]
		total += atoi(site.Store.Read(k))
	}
	return total
}

func atoi(s string) int {
	n := 0
	neg := false
	for i, ch := range s {
		if i == 0 && ch == '-' {
			neg = true
			continue
		}
		if ch < '0' || ch > '9' {
			return 0
		}
		n = n*10 + int(ch-'0')
	}
	if neg {
		return -n
	}
	return n
}
