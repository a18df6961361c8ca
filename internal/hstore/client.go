package hstore

import "context"

// Client is how applications talk to an in-process store; anything
// networked goes through internal/dstore, which wraps the same Server in
// a region server. Scan supports both server-side filtering (pushdown,
// §5.3) and client-side filtering (fetch everything in range, filter
// locally) — the difference in rows and bytes returned is exactly what
// §5.3 argues about.
//
// Every data-plane method takes the caller's context first and refuses
// to start under a dead one; Scan hands it to the server, which stops
// its region merge mid-scan. Flush/Stats/ResetStats are process-owned
// admin operations and stay context-free.
type Client struct {
	s *Server
}

// Connect returns a client bound directly to an in-process server.
func Connect(s *Server) *Client { return &Client{s: s} }

// CreateTable creates a table.
func (c *Client) CreateTable(ctx context.Context, table string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return c.s.CreateTable(table)
}

// Put writes one cell.
func (c *Client) Put(ctx context.Context, table, row, column string, value []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return c.s.Put(table, row, column, value)
}

// PutRow writes all columns of a row, in column-name order (the
// server sorts), so cell timestamps do not depend on map iteration.
func (c *Client) PutRow(ctx context.Context, table string, r Row) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return c.s.PutRow(table, r)
}

// Get fetches one row.
func (c *Client) Get(ctx context.Context, table, row string) (Row, bool, error) {
	if err := ctx.Err(); err != nil {
		return Row{}, false, err
	}
	return c.s.Get(table, row)
}

// MultiGet fetches many rows in one round trip. Both result slices are
// aligned with the requested keys: found[i] reports whether rows[i]
// exists, and missing rows are zero-valued.
func (c *Client) MultiGet(ctx context.Context, table string, rows []string) ([]Row, []bool, error) {
	out := make([]Row, len(rows))
	found := make([]bool, len(rows))
	for i, key := range rows {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		r, ok, err := c.s.Get(table, key)
		if err != nil {
			return nil, nil, err
		}
		out[i], found[i] = r, ok
	}
	return out, found, nil
}

// DeleteRow tombstones every column of the row.
func (c *Client) DeleteRow(ctx context.Context, table, row string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return c.s.DeleteRow(table, row)
}

// Flush flushes the table's memstores.
func (c *Client) Flush(table string) error { return c.s.Flush(table) }

// Stats returns the server's transfer counters.
func (c *Client) Stats() (TransferStats, error) { return c.s.Stats(), nil }

// ResetStats zeroes the server's transfer counters, so an experiment
// can read them per-phase instead of cumulatively.
func (c *Client) ResetStats() error { c.s.ResetStats(); return nil }

// Scan returns the rows in [start, end) matching the filter, evaluated
// at the server (pushdown). Limit 0 means unlimited. A canceled ctx
// stops the server's region merge mid-scan. The rows are the caller's
// and their values read-only (Server.Scan).
func (c *Client) Scan(ctx context.Context, table, start, end string, f Filter, limit int) ([]Row, error) {
	return c.s.Scan(ctx, table, start, end, f, limit)
}

// ScanClientSide fetches every row in [start, end) from the server and
// applies the filter locally — the non-pushdown baseline of §5.3.
func (c *Client) ScanClientSide(ctx context.Context, table, start, end string, f Filter, limit int) ([]Row, error) {
	all, err := c.s.Scan(ctx, table, start, end, nil, 0)
	if err != nil {
		return nil, err
	}
	var out []Row
	for _, r := range all {
		if f == nil || f.Matches(r) {
			out = append(out, r)
			if limit > 0 && len(out) >= limit {
				break
			}
		}
	}
	return out, nil
}
