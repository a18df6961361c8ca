package dstore

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pstorm/internal/hstore"
	"pstorm/internal/httperr"
)

// TestHTTPCluster runs the whole control and data plane over real HTTP:
// master and region servers mounted on httptest servers, joined by
// address, written and read through a routing client that resolves
// every peer remotely — the pstormd deployment shape.
func TestHTTPCluster(t *testing.T) {
	m := NewMaster(NewRegistry(), MasterOptions{
		Replication:   2,
		DefaultSplits: []string{"m"},
	})
	masterSrv := httptest.NewServer(MasterHandler(m))
	defer masterSrv.Close()

	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("hrs-%d", i)
		rs := NewRegionServer(id, NewRegistry())
		srv := httptest.NewServer(RegionServerHandler(rs))
		defer srv.Close()
		mc := DialMaster(masterSrv.URL, time.Second)
		if err := mc.Join(Peer{ID: id, Addr: srv.URL}); err != nil {
			t.Fatalf("join over HTTP: %v", err)
		}
	}

	cl := NewClient(DialMaster(masterSrv.URL, time.Second), NewRegistry())
	cl.RetryBase = time.Microsecond
	if err := cl.CreateTable(context.Background(), "t"); err != nil {
		t.Fatalf("CreateTable over HTTP: %v", err)
	}

	var rows []hstore.Row
	for i := 0; i < 20; i++ {
		rows = append(rows, hstore.Row{
			Key:     fmt.Sprintf("k%02d", i),
			Columns: map[string][]byte{"c": []byte(fmt.Sprintf("v%d", i))},
		})
	}
	if err := cl.BatchPut(context.Background(), "t", rows); err != nil {
		t.Fatalf("BatchPut over HTTP: %v", err)
	}
	for i := 0; i < 20; i++ {
		r, ok, err := cl.Get(context.Background(), "t", fmt.Sprintf("k%02d", i))
		if err != nil || !ok {
			t.Fatalf("Get(k%02d) over HTTP: ok=%v err=%v", i, ok, err)
		}
		if want := fmt.Sprintf("v%d", i); string(r.Columns["c"]) != want {
			t.Fatalf("k%02d = %q, want %q", i, r.Columns["c"], want)
		}
	}

	// Filter pushdown survives the wire.
	got, err := cl.Scan(context.Background(), "t", "", "", &hstore.PrefixFilter{Prefix: "k0"}, 0)
	if err != nil {
		t.Fatalf("filtered Scan over HTTP: %v", err)
	}
	if len(got) != 10 {
		t.Fatalf("prefix scan returned %d rows, want 10", len(got))
	}
	// So does projection: rows keep only the requested columns they
	// have, and a row with none of them comes back with nil Columns.
	got, err = cl.Scan(context.Background(), "t", "", "", hstore.Project(&hstore.PrefixFilter{Prefix: "k0"}, "c", "absent"), 0)
	if err != nil {
		t.Fatalf("projected Scan over HTTP: %v", err)
	}
	if len(got) != 10 {
		t.Fatalf("projected scan returned %d rows, want 10", len(got))
	}
	for i, r := range got {
		if want := fmt.Sprintf("v%d", i); len(r.Columns) != 1 || string(r.Columns["c"]) != want {
			t.Fatalf("projected row %s = %v, want only c=%s", r.Key, r.Columns, want)
		}
	}
	got, err = cl.Scan(context.Background(), "t", "", "", hstore.Project(&hstore.PrefixFilter{Prefix: "k0"}, "absent"), 0)
	if err != nil || len(got) != 10 {
		t.Fatalf("scan projected onto an absent column: %d rows, err %v; want 10", len(got), err)
	}
	for _, r := range got {
		if r.Columns != nil {
			t.Fatalf("row %s holds no requested column but came back with %v", r.Key, r.Columns)
		}
	}

	// A NotServing on the remote side maps through 409 back to a typed
	// error: fence a region, hit it directly, and check the client's
	// retry loop also recovers once the region is unfenced.
	meta, err := cl.Meta()
	if err != nil {
		t.Fatal(err)
	}
	g := meta.Tables["t"][0]
	var primary Peer
	var chain []Peer
	for _, p := range meta.Servers {
		if p.ID == g.Primary {
			primary = p
		}
		for _, f := range g.Followers {
			if p.ID == f {
				chain = append(chain, p)
			}
		}
	}
	conn := newHTTPServerConn(primary.Addr, time.Second)
	if err := conn.SetRole("t", g.ID, false, nil, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := conn.Get(context.Background(), "t", "k00"); !hstore.IsNotServing(err) {
		t.Fatalf("fenced remote Get returned %v, want NotServing", err)
	}
	if err := conn.SetRole("t", g.ID, true, chain, 0); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := cl.Get(context.Background(), "t", "k00"); err != nil || !ok {
		t.Fatalf("Get after unfence: ok=%v err=%v", ok, err)
	}

	// DeleteRow and stats round-trip over the wire too.
	if err := cl.DeleteRow(context.Background(), "t", "k00"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := cl.Get(context.Background(), "t", "k00"); ok {
		t.Fatal("row survived remote delete")
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.RowsReturned == 0 {
		t.Fatal("stats over HTTP returned nothing")
	}
	if err := cl.ResetStats(); err != nil {
		t.Fatal(err)
	}
	st, err = cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.RowsReturned != 0 {
		t.Fatalf("stats not reset over HTTP: %+v", st)
	}
}

// A hung region server must fail the call within Registry.Timeout, and
// a registry left at zero must still arm a timeout at all.
func TestDialTimeout(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(200 * time.Millisecond)
	}))
	defer slow.Close()
	reg := NewRegistry()
	reg.Timeout = 10 * time.Millisecond
	conn, err := reg.Resolve(Peer{ID: "hung", Addr: slow.URL})
	if err != nil {
		t.Fatal(err)
	}
	// The server would answer 200 after its nap; only the client cutting
	// the request off surfaces as a transport failure.
	if _, _, err := conn.Get(context.Background(), "t", "row"); !errors.Is(err, errTransport) {
		t.Errorf("hung /d/get = %v, want a transport timeout", err)
	}
	def, err := NewRegistry().Resolve(Peer{ID: "hung", Addr: slow.URL})
	if err != nil {
		t.Fatal(err)
	}
	if got := def.(*httpServerConn).h.hc.Timeout; got != DefaultDialTimeout {
		t.Errorf("default conn timeout = %v, want %v", got, DefaultDialTimeout)
	}
}

// TestMalformedControlQueryRejected: a control-plane query value that
// does not parse is a 400 bad_request, never a silent 0 — region 0 is a
// region, and master epoch 0 is the unfenced value fence() waves
// through. A missing mepoch still means the single-master 0.
func TestMalformedControlQueryRejected(t *testing.T) {
	rs := NewRegionServer("rs", NewRegistry())
	if err := rs.Install(&hstore.RegionSnapshot{Table: "t", RegionID: 0}, 7); err != nil {
		t.Fatal(err)
	}
	rsSrv := httptest.NewServer(RegionServerHandler(rs))
	defer rsSrv.Close()
	m := NewMaster(NewRegistry(), MasterOptions{})
	mSrv := httptest.NewServer(MasterHandler(m))
	defer mSrv.Close()

	for _, url := range []string{
		rsSrv.URL + "/d/export?table=t&region=abc",
		rsSrv.URL + "/d/drop?table=t&region=abc&mepoch=7",
		rsSrv.URL + "/d/drop?table=t&region=0&mepoch=seven",
		rsSrv.URL + "/d/drop?table=t&region=0&mepoch=",
		mSrv.URL + "/d/move?table=t&region=1x&to=rs",
		mSrv.URL + "/m/image?master_epoch=abc&epoch=0",
		mSrv.URL + "/m/image?master_epoch=0&epoch=1e3",
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		e, ok := httperr.Parse(body)
		if resp.StatusCode != http.StatusBadRequest || !ok || e.Code != httperr.CodeBadRequest || !strings.Contains(e.Message, "not an integer") {
			t.Errorf("GET %s = %d %s, want 400 bad_request naming the value", url, resp.StatusCode, body)
		}
	}
	if _, err := rs.Export("t", 0); err != nil {
		t.Fatalf("region 0 after the malformed drops: %v", err)
	}
	// Stale epoch is still fenced, an absent one is still the legacy 0.
	conn := newHTTPServerConn(rsSrv.URL, time.Second)
	if err := conn.Drop("t", 0, 3); !errors.Is(err, ErrStaleMaster) {
		t.Fatalf("Drop at a deposed epoch = %v, want ErrStaleMaster", err)
	}
	resp, err := http.Get(rsSrv.URL + "/d/drop?table=t&region=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drop without mepoch = %d, want 200", resp.StatusCode)
	}
}
