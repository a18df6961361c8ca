package dstore

import (
	"context"
	"fmt"
	"sync"
	"time"

	"pstorm/internal/hstore"
)

// ServerConn is how the master and the routing client reach one region
// server, over either transport. It has a data half, below, and a
// control half, controlConn: the five calls a master ever makes.
//
// Data-plane methods take the caller's context first: the HTTP conn
// ships the remaining deadline on the wire (httperr.DeadlineHeader) and
// an in-process *RegionServer, which is a ServerConn itself, takes it
// directly, so a canceled caller aborts server-side work. Apply stays
// context-free — it is the replication/backfill path, owned by the
// primary (or the master's move protocol), and must not be severed by
// the original writer departing mid-replication. The control half is
// master-owned and likewise context-free.
type ServerConn interface {
	Put(ctx context.Context, table, row, column string, value []byte) error
	BatchPut(ctx context.Context, table string, rows []hstore.Row) error
	Apply(table string, cells []hstore.Cell) error
	Get(ctx context.Context, table, row string) (hstore.Row, bool, error)
	// FollowerGet reads a row whatever the copy's role, so a follower
	// replica answers too. The routing client never calls it.
	FollowerGet(ctx context.Context, table, row string) (hstore.Row, bool, error)
	BatchGet(ctx context.Context, table string, rows []string) ([]hstore.Row, []bool, error)
	Scan(ctx context.Context, table string, regionID int, start, end string, f hstore.Filter, limit int) ([]hstore.Row, error)
	// FollowerScan scans one region whatever the copy's role (read-only
	// safe: synchronous replication keeps follower copies complete). The
	// routing client never calls it.
	FollowerScan(ctx context.Context, table string, regionID int, start, end string, f hstore.Filter, limit int) ([]hstore.Row, error)
	DeleteRow(ctx context.Context, table, row string) error
	Flush(table string) error
	Stats() (hstore.TransferStats, error)
	ResetStats() error
	controlConn
}

// controlConn is ServerConn's control half, all a master holds of a
// server. Mutating calls carry the caller's master epoch for fencing: a
// region server rejects epochs lower than the highest it has seen
// (ErrStaleMaster), so a deposed leader cannot mutate placement after a
// standby promoted. Epoch 0 means unfenced (single-master legacy).
// Export is a read and stays unfenced. A copy is installed fenced;
// SetRole alone makes it the primary (serving, replicating to
// followers) or a fenced follower again, and returns once the writes of
// the previous role drained.
type controlConn interface {
	// Health reports self-diagnosed damage (quarantined region copies).
	Health() (HealthReport, error)
	Install(snap *hstore.RegionSnapshot, masterEpoch int64) error
	Export(table string, regionID int) (*hstore.RegionSnapshot, error)
	Drop(table string, regionID int, masterEpoch int64) error
	SetRole(table string, regionID int, primary bool, followers []Peer, masterEpoch int64) error
}

// MasterConn is how region servers and clients reach the master.
type MasterConn interface {
	Join(p Peer) error
	Heartbeat(id string) error
	Meta() (Meta, error)
	CreateTable(table string) error
}

// Registry resolves Peers to ServerConns: in-process servers register
// themselves and are reached directly; peers with an address get a
// cached HTTP connection. Master, region servers, and clients of one
// process share a Registry.
type Registry struct {
	// Timeout bounds each HTTP request of resolved remote conns
	// (default DefaultDialTimeout).
	Timeout time.Duration

	// WrapConn, when set, decorates every resolved connection — the
	// chaos harness's seam for injecting drops, latency, and
	// partitions between any caller and any server. Set it before the
	// cluster starts resolving; it must be deterministic per (id,
	// conn) for replayable fault schedules.
	WrapConn func(id string, conn ServerConn) ServerConn

	mu     sync.RWMutex
	local  map[string]*RegionServer
	remote map[string]*httpServerConn
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		local:  make(map[string]*RegionServer),
		remote: make(map[string]*httpServerConn),
	}
}

// Register makes an in-process region server resolvable by ID.
func (r *Registry) Register(rs *RegionServer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.local[rs.ID()] = rs
}

// Resolve returns a connection to the peer, decorated by WrapConn when
// one is installed.
func (r *Registry) Resolve(p Peer) (ServerConn, error) {
	c, err := r.resolve(p)
	if err != nil {
		return nil, err
	}
	if r.WrapConn != nil {
		return r.WrapConn(p.ID, c), nil
	}
	return c, nil
}

func (r *Registry) resolve(p Peer) (ServerConn, error) {
	r.mu.RLock()
	if p.Addr == "" {
		rs, ok := r.local[p.ID]
		r.mu.RUnlock()
		if !ok {
			return nil, fmt.Errorf("dstore: unknown in-process server %q", p.ID)
		}
		return rs, nil
	}
	if c, ok := r.remote[p.Addr]; ok {
		r.mu.RUnlock()
		return c, nil
	}
	r.mu.RUnlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.remote[p.Addr]; ok {
		return c, nil
	}
	c := newHTTPServerConn(p.Addr, r.Timeout)
	r.remote[p.Addr] = c
	return c, nil
}

// unresolvedConn stands in for a server whose connection could not be
// re-resolved when a master adopted a journaled or peer META image (the
// server may simply not have rejoined yet). Every call fails like a
// down network path — retryable — and the entry heals in place when
// the server rejoins with a resolvable peer.
type unresolvedConn struct{ id string }

func (c *unresolvedConn) err() error {
	return fmt.Errorf("%w: server %s not resolvable after META recovery", errTransport, c.id)
}

func (c *unresolvedConn) Health() (HealthReport, error)                      { return HealthReport{}, c.err() }
func (c *unresolvedConn) Install(*hstore.RegionSnapshot, int64) error        { return c.err() }
func (c *unresolvedConn) Export(string, int) (*hstore.RegionSnapshot, error) { return nil, c.err() }
func (c *unresolvedConn) Drop(string, int, int64) error                      { return c.err() }
func (c *unresolvedConn) SetRole(string, int, bool, []Peer, int64) error     { return c.err() }

// directMaster adapts an in-process *Master to MasterConn.
type directMaster struct{ m *Master }

func (c *directMaster) Join(p Peer) error         { return c.m.Join(p) }
func (c *directMaster) Heartbeat(id string) error { return c.m.Heartbeat(id) }
func (c *directMaster) Meta() (Meta, error) {
	if c.m.Stopped() {
		return Meta{}, errMasterStopped
	}
	return c.m.Meta(), nil
}
func (c *directMaster) CreateTable(table string) error { return c.m.CreateTable(table) }

// ConnectMaster returns a MasterConn bound to an in-process master.
func ConnectMaster(m *Master) MasterConn { return &directMaster{m: m} }
