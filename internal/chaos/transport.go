package chaos

import (
	"context"
	"fmt"
	"time"

	"pstorm/internal/dstore"
	"pstorm/internal/hstore"
)

// WrapConn decorates a resolved server connection with the engine's
// transport faults; install it as Registry.WrapConn before the cluster
// resolves anything. Fault sites are keyed per (server, method), so a
// drop schedule for rs-1's Gets is independent of rs-2's Puts.
//
// Partition rejections are not logged to the schedule: partitions are
// explicit test actions (Partition/Heal), not scheduled draws.
func (e *Engine) WrapConn(id string, conn dstore.ServerConn) dstore.ServerConn {
	return &faultConn{e: e, id: id, inner: conn}
}

type faultConn struct {
	e     *Engine
	id    string
	inner dstore.ServerConn
}

// gate applies the engine's transport faults to one RPC: partition
// check first, then an injected-latency draw, then a drop draw.
func (c *faultConn) gate(method string) error {
	if c.e.isPartitioned(c.id) {
		return fmt.Errorf("chaos: %s partitioned: %w", c.id, dstore.ErrInjected)
	}
	site := c.id + "/" + method
	n, h, armed := c.e.draw(site)
	if !armed {
		return nil
	}
	if hit(splitmix64(h^0x1a7e57), c.e.opts.LatencyProb) {
		c.e.record(site, n, "latency")
		time.Sleep(c.e.latency())
	}
	if hit(h, c.e.opts.DropProb) {
		c.e.record(site, n, "drop")
		return fmt.Errorf("chaos: dropped %s to %s: %w", method, c.id, dstore.ErrInjected)
	}
	return nil
}

func (c *faultConn) Put(ctx context.Context, table, row, column string, value []byte) error {
	if err := c.gate("put"); err != nil {
		return err
	}
	return c.inner.Put(ctx, table, row, column, value)
}

func (c *faultConn) BatchPut(ctx context.Context, table string, rows []hstore.Row) error {
	if err := c.gate("batchput"); err != nil {
		return err
	}
	return c.inner.BatchPut(ctx, table, rows)
}

func (c *faultConn) Apply(table string, cells []hstore.Cell) error {
	if err := c.gate("apply"); err != nil {
		return err
	}
	return c.inner.Apply(table, cells)
}

func (c *faultConn) Get(ctx context.Context, table, row string) (hstore.Row, bool, error) {
	if err := c.gate("get"); err != nil {
		return hstore.Row{}, false, err
	}
	return c.inner.Get(ctx, table, row)
}

func (c *faultConn) FollowerGet(ctx context.Context, table, row string) (hstore.Row, bool, error) {
	if err := c.gate("fget"); err != nil {
		return hstore.Row{}, false, err
	}
	return c.inner.FollowerGet(ctx, table, row)
}

func (c *faultConn) BatchGet(ctx context.Context, table string, rows []string) ([]hstore.Row, []bool, error) {
	if err := c.gate("batchget"); err != nil {
		return nil, nil, err
	}
	return c.inner.BatchGet(ctx, table, rows)
}

func (c *faultConn) Scan(ctx context.Context, table string, regionID int, start, end string, f hstore.Filter, limit int) ([]hstore.Row, error) {
	if err := c.gate("scan"); err != nil {
		return nil, err
	}
	return c.inner.Scan(ctx, table, regionID, start, end, f, limit)
}

func (c *faultConn) FollowerScan(ctx context.Context, table string, regionID int, start, end string, f hstore.Filter, limit int) ([]hstore.Row, error) {
	if err := c.gate("fscan"); err != nil {
		return nil, err
	}
	return c.inner.FollowerScan(ctx, table, regionID, start, end, f, limit)
}

func (c *faultConn) DeleteRow(ctx context.Context, table, row string) error {
	if err := c.gate("deleterow"); err != nil {
		return err
	}
	return c.inner.DeleteRow(ctx, table, row)
}

func (c *faultConn) Flush(table string) error {
	if err := c.gate("flush"); err != nil {
		return err
	}
	return c.inner.Flush(table)
}

func (c *faultConn) Stats() (hstore.TransferStats, error) {
	if err := c.gate("stats"); err != nil {
		return hstore.TransferStats{}, err
	}
	return c.inner.Stats()
}

func (c *faultConn) ResetStats() error {
	if err := c.gate("resetstats"); err != nil {
		return err
	}
	return c.inner.ResetStats()
}

func (c *faultConn) Health() (dstore.HealthReport, error) {
	if err := c.gate("health"); err != nil {
		return dstore.HealthReport{}, err
	}
	return c.inner.Health()
}

func (c *faultConn) Install(snap *hstore.RegionSnapshot, masterEpoch int64) error {
	if err := c.gate("install"); err != nil {
		return err
	}
	return c.inner.Install(snap, masterEpoch)
}

func (c *faultConn) Export(table string, regionID int) (*hstore.RegionSnapshot, error) {
	if err := c.gate("export"); err != nil {
		return nil, err
	}
	return c.inner.Export(table, regionID)
}

func (c *faultConn) Drop(table string, regionID int, masterEpoch int64) error {
	if err := c.gate("drop"); err != nil {
		return err
	}
	return c.inner.Drop(table, regionID, masterEpoch)
}

func (c *faultConn) SetRole(table string, regionID int, primary bool, followers []dstore.Peer, masterEpoch int64) error {
	if err := c.gate("setrole"); err != nil {
		return err
	}
	return c.inner.SetRole(table, regionID, primary, followers, masterEpoch)
}

// WrapPeerConn decorates a master-to-master connection with the same
// transport faults, keyed per (master, method) — install it as
// LocalOptions.WrapPeerConn so elections feel partitions and drops.
// A partitioned master can neither ping its peers nor be pinged by
// them: the engine partitions IDs, not directions.
func (e *Engine) WrapPeerConn(id string, conn dstore.MasterPeerConn) dstore.MasterPeerConn {
	return &faultPeer{e: e, id: id, inner: conn}
}

type faultPeer struct {
	e     *Engine
	id    string
	inner dstore.MasterPeerConn
}

func (c *faultPeer) gate(method string) error {
	if c.e.isPartitioned(c.id) {
		return fmt.Errorf("chaos: master %s partitioned: %w", c.id, dstore.ErrInjected)
	}
	site := c.id + "/" + method
	n, h, armed := c.e.draw(site)
	if !armed {
		return nil
	}
	if hit(h, c.e.opts.DropProb) {
		c.e.record(site, n, "drop")
		return fmt.Errorf("chaos: dropped %s to master %s: %w", method, c.id, dstore.ErrInjected)
	}
	return nil
}

func (c *faultPeer) Ping(from string) (dstore.PeerStatus, error) {
	if err := c.gate("ping"); err != nil {
		return dstore.PeerStatus{}, err
	}
	if c.e.isPartitioned(from) {
		// The pinger is on the wrong side of the partition: its probe
		// never arrives, so it must not refresh its lease at the target.
		return dstore.PeerStatus{}, fmt.Errorf("chaos: master %s partitioned: %w", from, dstore.ErrInjected)
	}
	return c.inner.Ping(from)
}

func (c *faultPeer) PullImage(masterEpoch, epoch int64) (dstore.MetaImage, error) {
	if err := c.gate("journal"); err != nil {
		return dstore.MetaImage{}, err
	}
	return c.inner.PullImage(masterEpoch, epoch)
}

func (c *faultPeer) PushImage(from string, img dstore.MetaImage) error {
	if err := c.gate("journal_push"); err != nil {
		return err
	}
	if c.e.isPartitioned(from) {
		// The pushing leader is on the wrong side of the partition: its
		// image never arrives.
		return fmt.Errorf("chaos: master %s partitioned: %w", from, dstore.ErrInjected)
	}
	return c.inner.PushImage(from, img)
}
