package dstore

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"pstorm/internal/hstore"
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

	// A NotServing on the remote side maps through 409 back to a typed
	// error: fence a region, hit it directly, and check the client's
	// retry loop also recovers once the region is unfenced.
	meta, err := cl.Meta()
	if err != nil {
		t.Fatal(err)
	}
	g := meta.Tables["t"][0]
	var primary Peer
	for _, p := range meta.Servers {
		if p.ID == g.Primary {
			primary = p
		}
	}
	conn := newHTTPServerConn(primary.Addr, time.Second)
	if err := conn.SetServing("t", g.ID, false, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := conn.Get(context.Background(), "t", "k00"); !hstore.IsNotServing(err) {
		t.Fatalf("fenced remote Get returned %v, want NotServing", err)
	}
	if err := conn.SetServing("t", g.ID, true, 0); err != nil {
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
