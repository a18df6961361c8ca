package dstore

import (
	"fmt"
	"time"

	"pstorm/internal/obs"
)

// DefaultSplits are the split points pstorm uses for its profile table:
// row keys are "<ftype>/<jobID>" with ftypes costmap, costred, dynmap,
// dynred, meta, statmap, statred (plus "!bounds/..." rows), so these
// cuts spread the feature families across regions.
var DefaultSplits = []string{"dyn", "meta", "stat"}

// LocalOptions configures StartLocalCluster.
type LocalOptions struct {
	// Servers is the number of region servers (default 3).
	Servers int
	// Replication is copies per region, primary included (default 2,
	// clamped to Servers).
	Replication int
	// HeartbeatTimeout is how long the master waits before declaring a
	// silent server dead (default 2s).
	HeartbeatTimeout time.Duration
	// Splits are the region split points for created tables (default
	// DefaultSplits).
	Splits []string
	// Background starts the master's liveness loop and per-server
	// heartbeats, which beat every HeartbeatTimeout/4. Leave false in
	// deterministic tests and drive Heartbeat/CheckLiveness manually.
	Background bool
	// WrapConn, when set, is installed on the cluster's Registry before
	// anything resolves — the chaos harness's transport hook.
	WrapConn func(id string, conn ServerConn) ServerConn
	// Now, when set, is the master's clock (deterministic chaos tests
	// drive liveness and health checks against it).
	Now func() time.Time

	// Masters is how many masters to run (default 1). With more than
	// one, masters[0] boots as leader and the rest as standbys holding
	// its latest catalog image; the cluster's MasterConn fails over
	// across all of them, and election is driven by ElectionTick
	// (Background) or the test's own tick schedule.
	Masters int
	// LeaseDuration is the leader lease standbys wait out before
	// promoting (default 2×HeartbeatTimeout).
	LeaseDuration time.Duration
	// Seed feeds the deterministic election tie-break.
	Seed int64
	// WrapPeerConn, when set, decorates every master-to-master conn —
	// the chaos harness's seam for partitioning the electorate.
	WrapPeerConn func(id string, conn MasterPeerConn) MasterPeerConn
}

// LocalCluster is a whole dstore deployment in one process: a master
// plus N region servers sharing a Registry, plus a routing client.
// It exists for tests and benchmarks; pstormd wires the same pieces
// over TCP.
type LocalCluster struct {
	// Master is the bootstrap leader (Masters[0]): kept as a field so
	// single-master tests and callers read naturally.
	Master  *Master
	Masters []*Master
	Reg     *Registry
	Servers []*RegionServer

	client *Client
	mc     MasterConn
}

// StartLocalCluster builds and joins a cluster.
func StartLocalCluster(opts LocalOptions) (*LocalCluster, error) {
	if opts.Servers <= 0 {
		opts.Servers = 3
	}
	if opts.Replication <= 0 {
		opts.Replication = 2
	}
	if opts.Replication > opts.Servers {
		opts.Replication = opts.Servers
	}
	if opts.Splits == nil {
		opts.Splits = DefaultSplits
	}
	if opts.Masters <= 0 {
		opts.Masters = 1
	}
	reg := NewRegistry()
	reg.WrapConn = opts.WrapConn

	// The electorate: every master knows the full peer list. Conns are
	// resolved lazily through byID, so masters constructed later in this
	// loop are still reachable from earlier ones.
	peers := make([]Peer, opts.Masters)
	for i := range peers {
		peers[i] = Peer{ID: fmt.Sprintf("m-%d", i)}
	}
	byID := make(map[string]*Master, opts.Masters)
	resolver := func(p Peer) (MasterPeerConn, error) {
		pm, ok := byID[p.ID]
		if !ok {
			return nil, fmt.Errorf("dstore: unknown local master %q", p.ID)
		}
		var conn MasterPeerConn = ConnectMasterPeer(pm)
		if opts.WrapPeerConn != nil {
			conn = opts.WrapPeerConn(p.ID, conn)
		}
		return conn, nil
	}
	mopts := MasterOptions{
		HeartbeatTimeout: opts.HeartbeatTimeout,
		Replication:      opts.Replication,
		DefaultSplits:    opts.Splits,
		Now:              opts.Now,
		LeaseDuration:    opts.LeaseDuration,
		Seed:             opts.Seed,
	}
	if opts.Masters > 1 {
		mopts.Peers = peers
		mopts.PeerResolver = resolver
	}
	c := &LocalCluster{Reg: reg}
	for i := 0; i < opts.Masters; i++ {
		mo := mopts
		mo.ID = peers[i].ID
		mo.Standby = i > 0
		m := NewMaster(reg, mo)
		byID[m.MasterID()] = m
		c.Masters = append(c.Masters, m)
	}
	c.Master = c.Masters[0]
	if opts.Masters > 1 {
		c.mc = ConnectMasters(c.Masters...)
	} else {
		c.mc = ConnectMaster(c.Master)
	}
	for i := 0; i < opts.Servers; i++ {
		rs := NewRegionServer(fmt.Sprintf("rs-%d", i), reg)
		if err := c.mc.Join(Peer{ID: rs.ID()}); err != nil {
			return nil, err
		}
		c.Servers = append(c.Servers, rs)
	}
	if opts.Background {
		interval := c.Master.opts.heartbeatTimeout() / 4
		for _, rs := range c.Servers {
			rs.StartHeartbeats(c.mc, Peer{ID: rs.ID()}, interval)
		}
		for _, m := range c.Masters {
			m.Start()
		}
	}
	c.client = NewClient(c.mc, reg)
	return c, nil
}

// MasterConn returns the cluster's (failover-aware) master connection.
func (c *LocalCluster) MasterConn() MasterConn { return c.mc }

// MasterByID returns the master with the given ID, or nil.
func (c *LocalCluster) MasterByID(id string) *Master {
	for _, m := range c.Masters {
		if m.MasterID() == id {
			return m
		}
	}
	return nil
}

// Leader returns the master currently acting as leader, or nil during a
// takeover window.
func (c *LocalCluster) Leader() *Master {
	for _, m := range c.Masters {
		if !m.Stopped() && m.IsLeader() {
			return m
		}
	}
	return nil
}

// KillMaster stops a master by ID, simulating a control-plane crash.
// Returns false if no such master exists or it is already stopped.
func (c *LocalCluster) KillMaster(id string) bool {
	m := c.MasterByID(id)
	if m == nil || m.Stopped() {
		return false
	}
	m.Stop()
	return true
}

// Client returns the cluster's routing client.
func (c *LocalCluster) Client() *Client { return c.client }

// Server returns the region server with the given ID, or nil.
func (c *LocalCluster) Server(id string) *RegionServer {
	for _, rs := range c.Servers {
		if rs.ID() == id {
			return rs
		}
	}
	return nil
}

// KillServer stops a region server by ID, simulating a crash. Returns
// false if no such server exists (or it is already stopped).
func (c *LocalCluster) KillServer(id string) bool {
	rs := c.Server(id)
	if rs == nil || rs.Stopped() {
		return false
	}
	rs.Stop()
	return true
}

// Snapshot merges the observability state of every cluster component:
// master (failover/move events), each region server (latency
// histograms, plus its embedded hstore's LSM counters), and the
// routing client (retries, backoff, give-ups).
func (c *LocalCluster) Snapshot() obs.Snapshot {
	var snaps []obs.Snapshot
	for _, m := range c.Masters {
		snaps = append(snaps, m.Obs().Snapshot())
	}
	for _, rs := range c.Servers {
		snaps = append(snaps, rs.Obs().Snapshot(), rs.HStore().Obs().Snapshot())
	}
	if c.client != nil {
		snaps = append(snaps, c.client.Obs().Snapshot())
	}
	return obs.Merge(snaps...)
}

// Close stops every master loop and every region server.
func (c *LocalCluster) Close() {
	for _, m := range c.Masters {
		m.Close()
	}
	for _, rs := range c.Servers {
		rs.Stop()
	}
}
