package hstore

import (
	"errors"
	"fmt"
	"sort"

	"pstorm/internal/httperr"
)

// NotServingError reports that the addressed row (or scan range) is not
// currently served by this server. hstore returns it when no hosted
// region covers the row — never hosted here, or moved away; a dstore
// region server also returns it for a copy that is not primary. Clients
// holding a routing cache should treat it as "my route is stale":
// refresh the route and retry — exactly HBase's
// NotServingRegionException contract.
type NotServingError struct {
	Table string
	Row   string
}

func (e *NotServingError) Error() string {
	return fmt.Sprintf("hstore: region for %s/%q not serving here", e.Table, e.Row)
}

// Unwrap names the wire code: the client re-routes and retries.
func (e *NotServingError) Unwrap() error { return errNotServing }

var errNotServing = httperr.Errorf(httperr.CodeNotServing, "hstore: region not serving here")

// IsNotServing reports whether err is (or wraps) a NotServingError.
func IsNotServing(err error) bool {
	if err == nil {
		return false
	}
	var nse *NotServingError
	return errors.As(err, &nse)
}

// ErrNoTable marks a request naming a table this server does not host
// at all. The wording completes the historical message ("hstore: table
// %q does not exist") so it stays a sentence; callers match it with
// errors.Is. A dstore region server maps it to NotServing: any data
// request that reached it was routed by META, so the table exists
// cluster-wide and its absence here means the route is stale — e.g. a
// restarted-empty incarnation still named by a client's cached route.
var ErrNoTable = httperr.Errorf(httperr.CodeBadRequest, "does not exist")

// RegionSnapshot is an immutable export of one region: its bounds plus
// the newest live cell of every (row, column), timestamps preserved.
// It is the unit of region movement and re-replication in dstore: the
// source exports, the target installs, META flips.
type RegionSnapshot struct {
	Table    string `json:"table"`
	RegionID int    `json:"region_id"`
	StartKey string `json:"start_key"`
	EndKey   string `json:"end_key"`
	Cells    []Cell `json:"cells"`
	// Clock is the exporter's logical clock. Cells omits tombstones, but
	// another replica may still hold one; the installer advances past
	// Clock so that, once it is primary, nothing it stamps can sort
	// under a version it never saw.
	Clock int64 `json:"clock,omitempty"`
	// Backfill marks a snapshot meant for BackfillRegion, not
	// InstallRegion: the receiver already hosts the copy it fills.
	Backfill bool `json:"backfill,omitempty"`
}

// Bytes approximates the snapshot's wire size, for the bytes-moved
// accounting of rebalancing benchmarks.
func (snap *RegionSnapshot) Bytes() int64 {
	n := int64(len(snap.Table) + len(snap.StartKey) + len(snap.EndKey) + 8)
	for _, c := range snap.Cells {
		n += int64(len(c.Row)+len(c.Column)+len(c.Value)) + 9
	}
	return n
}

// ExportRegion snapshots one hosted region.
func (s *Server) ExportRegion(table string, regionID int) (*RegionSnapshot, error) {
	g, err := s.regionByID(table, regionID)
	if err != nil {
		return nil, err
	}
	cells, err := g.exportCells()
	if err != nil {
		return nil, withTable(err, table)
	}
	return &RegionSnapshot{
		Table:    table,
		RegionID: regionID,
		StartKey: g.startKey,
		EndKey:   g.endKey,
		Cells:    cells,
		Clock:    s.clock.Load(),
	}, nil
}

// InstallRegion adds a region with the snapshot's bounds and contents
// to this server, creating an empty table shell first if the table is
// unknown here. A region already hosted here is an error: a leftover
// copy may hold rows deleted since.
func (s *Server) InstallRegion(snap *RegionSnapshot) error {
	if snap == nil || snap.Table == "" {
		return httperr.Errorf(httperr.CodeBadRequest, "hstore: install needs a table name")
	}
	s.mu.Lock()
	t, ok := s.tables[snap.Table]
	if !ok {
		t = &table{name: snap.Table}
		s.tables[snap.Table] = t
	}
	for _, g := range t.regions {
		if g.id == snap.RegionID {
			s.mu.Unlock()
			return httperr.Errorf(httperr.CodeBadRequest, "hstore: region %d already hosted for table %q", snap.RegionID, snap.Table)
		}
		if rangesOverlap(g.startKey, g.endKey, snap.StartKey, snap.EndKey) {
			s.mu.Unlock()
			return httperr.Errorf(httperr.CodeBadRequest, "hstore: region [%q,%q) overlaps hosted region %d [%q,%q)",
				snap.StartKey, snap.EndKey, g.id, g.startKey, g.endKey)
		}
	}
	g := newRegion(snap.RegionID, snap.StartKey, snap.EndKey, s.flushBytes(), s.stats)
	if snap.RegionID >= s.nextID {
		s.nextID = snap.RegionID + 1
	}
	t.regions = append(t.regions, g)
	sort.Slice(t.regions, func(i, j int) bool { return t.regions[i].startKey < t.regions[j].startKey })
	s.mu.Unlock()
	s.load(g, snap)
	return nil
}

// BackfillRegion merges a snapshot into the copy of its region already
// hosted here: the copy was installed empty and joined its replication
// chain before the export was taken, so it has missed no write, and
// cell timestamps order the snapshot against what the chain delivered
// meanwhile. The caller vouches that the copy started empty — a
// snapshot omits tombstones, so merged over older data it would
// resurrect deleted rows.
func (s *Server) BackfillRegion(snap *RegionSnapshot) error {
	g, err := s.regionByID(snap.Table, snap.RegionID)
	if err != nil {
		return err
	}
	s.load(g, snap)
	return nil
}

// load writes a snapshot's cells into g and advances the clock past
// everything the exporter had stamped.
func (s *Server) load(g *region, snap *RegionSnapshot) {
	s.bumpClock(snap.Clock)
	for _, c := range snap.Cells {
		s.bumpClock(c.Ts)
		g.put(c)
	}
}

// DropRegion removes a hosted region and its data (the final step of a
// region move, after the target has installed the snapshot).
func (s *Server) DropRegion(table string, regionID int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[table]
	if !ok {
		return fmt.Errorf("hstore: table %q %w", table, ErrNoTable)
	}
	for i, g := range t.regions {
		if g.id == regionID {
			t.regions = append(t.regions[:i], t.regions[i+1:]...)
			return nil
		}
	}
	return httperr.Errorf(httperr.CodeBadRequest, "hstore: region %d not hosted for table %q", regionID, table)
}

// LookupRegion returns the catalog entry of the hosted region owning
// the row, if any.
func (s *Server) LookupRegion(table, row string) (MetaEntry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[table]
	if !ok {
		return MetaEntry{}, false
	}
	g := t.regionFor(row)
	if g == nil {
		return MetaEntry{}, false
	}
	return MetaEntry{
		Table: table, StartKey: g.startKey, EndKey: g.endKey,
		RegionID: g.id, Server: localServerName,
	}, true
}

// HostsRegion returns nil if the region is hosted here, in any state,
// and otherwise the error every by-ID call reports.
func (s *Server) HostsRegion(table string, regionID int) error {
	_, err := s.regionByID(table, regionID)
	return err
}

func (s *Server) regionByID(table string, regionID int) (*region, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[table]
	if !ok {
		return nil, fmt.Errorf("hstore: table %q %w", table, ErrNoTable)
	}
	for _, g := range t.regions {
		if g.id == regionID {
			return g, nil
		}
	}
	return nil, httperr.Errorf(httperr.CodeBadRequest, "hstore: region %d not hosted for table %q", regionID, table)
}

// rangesOverlap reports whether [s1,e1) and [s2,e2) intersect, with ""
// as the unbounded end key.
func rangesOverlap(s1, e1, s2, e2 string) bool {
	return (e2 == "" || s1 < e2) && (e1 == "" || s2 < e1)
}
