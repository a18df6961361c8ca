package dstore

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"pstorm/internal/hstore"
)

// seedScanRows spreads rows across every region of the default split
// layout and returns the table to a flushed state so scans exercise
// the sstable block iterators, not just the memstore. It returns the
// rows it wrote, in key order.
func seedScanRows(t *testing.T, cl *Client) []hstore.Row {
	t.Helper()
	var seeded []hstore.Row
	for _, ftype := range []string{"costmap", "dyn", "meta", "stat"} {
		for i := 0; i < 12; i++ {
			r := hstore.Row{
				Key: fmt.Sprintf("%s/j%02d", ftype, i),
				Columns: map[string][]byte{
					"c": []byte(fmt.Sprintf("v-%d", i%4)),
					"d": []byte(fmt.Sprintf("aux-%d", i)),
				},
			}
			for _, col := range []string{"c", "d"} {
				if err := cl.Put(context.Background(), "t", r.Key, col, r.Columns[col]); err != nil {
					t.Fatal(err)
				}
			}
			seeded = append(seeded, r)
		}
	}
	if err := cl.Flush("t"); err != nil {
		t.Fatal(err)
	}
	return seeded
}

// TestScanMatchesModel: the fan-out scan must return exactly the
// seeded rows of the range, in key order, filtered and cut to the limit,
// for any combination of range, limit, and filter — whichever region
// answers first.
func TestScanMatchesModel(t *testing.T) {
	c, _ := startCluster(t, 3, nil)
	cl := c.Client()
	seeded := seedScanRows(t, cl)

	cases := []struct {
		name       string
		start, end string
		f          hstore.Filter
		limit      int
	}{
		{name: "full", start: "", end: ""},
		{name: "range", start: "dyn", end: "statzz"},
		{name: "limit_small", limit: 5},
		{name: "limit_cross_region", limit: 17},
		{name: "limit_over", limit: 1000},
		{name: "prefix_filter", f: &hstore.PrefixFilter{Prefix: "meta/"}},
		{name: "column_filter", f: &hstore.ColumnEqualsFilter{Column: "c", Value: "v-3"}},
		{name: "filter_and_limit", f: &hstore.ColumnEqualsFilter{Column: "c", Value: "v-1"}, limit: 4},
	}
	for _, tc := range cases {
		var want []hstore.Row
		for _, r := range seeded {
			if r.Key < tc.start || (tc.end != "" && r.Key >= tc.end) {
				continue
			}
			if tc.f != nil && !tc.f.Matches(r) {
				continue
			}
			if tc.limit > 0 && len(want) == tc.limit {
				break
			}
			want = append(want, r)
		}
		got, err := cl.Scan(context.Background(), "t", tc.start, tc.end, tc.f, tc.limit)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: scan diverges from the seeded model:\n got %v\nwant %v", tc.name, got, want)
		}
	}
	if fan, ok := cl.Obs().Snapshot().Histograms["scan_parallel_fanout"]; !ok || fan.Count == 0 {
		t.Error("scan_parallel_fanout never observed")
	}
}

// movingConn yanks a region out from under the first scan RPC that
// targets it: the master promotes the follower (fencing the old
// primary) just before the RPC is forwarded, so the in-flight scan
// hits a fenced region and must retry that region against fresh meta.
// It counts the scan RPCs each region receives.
type movingConn struct {
	ServerConn
	c      *LocalCluster
	once   *sync.Once
	region int
	moveTo string
	fail   func(string)
	scans  func(regionID int)
}

func (m *movingConn) Scan(ctx context.Context, table string, regionID int, start, end string, f hstore.Filter, limit int) ([]hstore.Row, error) {
	m.scans(regionID)
	if regionID == m.region {
		m.once.Do(func() {
			if _, err := m.c.Master.MoveRegion(table, m.region, m.moveTo); err != nil {
				m.fail(fmt.Sprintf("mid-scan MoveRegion: %v", err))
			}
		})
	}
	return m.ServerConn.Scan(ctx, table, regionID, start, end, f, limit)
}

// TestScanRetriesOnlyFailedRegion: a region move between the meta read
// and the per-region RPC must cost one retry of that region alone —
// the regions that already answered keep their rows — and the scan
// must still return the complete ordered result.
func TestScanRetriesOnlyFailedRegion(t *testing.T) {
	c, _ := startCluster(t, 3, nil)
	cl := c.Client()
	seedScanRows(t, cl)

	want, err := cl.Scan(context.Background(), "t", "", "", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := cl.Meta()
	g, err := cl.routeIn(m, "t", "meta/j00")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Followers) == 0 {
		t.Fatal("region has no follower to promote")
	}
	var once sync.Once
	var mu sync.Mutex
	var failMsg string
	scans := make(map[int]int)
	c.Reg.WrapConn = func(id string, conn ServerConn) ServerConn {
		return &movingConn{
			ServerConn: conn, c: c, once: &once,
			region: g.ID, moveTo: g.Followers[0],
			fail:  func(msg string) { mu.Lock(); failMsg = msg; mu.Unlock() },
			scans: func(regionID int) { mu.Lock(); scans[regionID]++; mu.Unlock() },
		}
	}
	before := cl.Retries()

	got, err := cl.Scan(context.Background(), "t", "", "", nil, 0)
	if err != nil {
		t.Fatalf("scan across region move: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if failMsg != "" {
		t.Fatal(failMsg)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("retried scan diverges: got %d rows, want %d", len(got), len(want))
	}
	if n := cl.Retries() - before; n != 1 {
		t.Errorf("scan over a moved region retried %d times, want 1", n)
	}
	if len(scans) != len(m.Tables["t"]) {
		t.Errorf("scan RPCs reached %d regions, want all %d: %v", len(scans), len(m.Tables["t"]), scans)
	}
	for id, n := range scans {
		want := 1
		if id == g.ID {
			want = 2
		}
		if n != want {
			t.Errorf("region %d got %d scan RPCs, want %d (moved region %d): %v", id, n, want, g.ID, scans)
		}
	}
}
