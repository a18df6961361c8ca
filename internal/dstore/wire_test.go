package dstore

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pstorm/internal/hstore"
	"pstorm/internal/httperr"
)

var updateWire = flag.Bool("update", false, "rewrite testdata/wire from the current code")

// wireTap is an http.RoundTripper that serves each request from an
// in-process handler chosen by host and keeps a transcript of what
// crossed: the request line, body and content type, then the status,
// content type and body of the answer. No socket is opened.
type wireTap struct {
	hosts map[string]http.Handler
	log   bytes.Buffer
	label string
}

func (w *wireTap) RoundTrip(req *http.Request) (*http.Response, error) {
	var body []byte
	if req.Body != nil {
		var err error
		if body, err = io.ReadAll(req.Body); err != nil {
			return nil, err
		}
	}
	h, ok := w.hosts[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("wireTap: no handler for host %q", req.URL.Host)
	}
	in := httptest.NewRequest(req.Method, req.URL.RequestURI(), bytes.NewReader(body))
	in.Header = req.Header.Clone()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, in)
	resp := rec.Result()

	fmt.Fprintf(&w.log, "### %s\n> %s %s %s %s\n", w.label, req.Method, req.URL.Host, req.URL.RequestURI(), req.Header.Get("Content-Type"))
	writeWireBody(&w.log, ">", body)
	fmt.Fprintf(&w.log, "< %d %s\n", resp.StatusCode, resp.Header.Get("Content-Type"))
	writeWireBody(&w.log, "<", rec.Body.Bytes())
	return resp, nil
}

// writeWireBody prints a body on one prefixed line. Bodies are compact
// JSON or short text; a missing final newline is marked, as diff does.
func writeWireBody(buf *bytes.Buffer, dir string, b []byte) {
	if len(b) == 0 {
		return
	}
	fmt.Fprintf(buf, "%s %s", dir, b)
	if !bytes.HasSuffix(b, []byte("\n")) {
		buf.WriteString("\n\\ no newline at end of body\n")
	}
}

// raw sends one hand-built request through the tap, for what no client
// method sends (garbled queries, bodies that do not decode, unknown
// paths).
func (w *wireTap) raw(t *testing.T, method, url, body string) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := w.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}

// tappedServerConn and tappedMaster dial the named host through the tap.
func tappedServerConn(w *wireTap, host string) *httpServerConn {
	c := newHTTPServerConn("http://"+host, 0)
	c.h.hc.Transport = w
	return c
}

func tappedMaster(w *wireTap, host string) (*httpMasterConn, *httpMasterConn) {
	mc := DialMaster("http://"+host, 0).(*httpMasterConn)
	mc.h.hc.Transport = w
	pc := DialMasterPeer("http://"+host, 0).(*httpMasterConn)
	pc.h.hc.Transport = w
	return mc, pc
}

// TestWireFormatUnchanged drives every /d/* and /m/* verb through the
// real client conns and handlers, with an injected clock and no
// sockets, and compares the transcript of requests and answers with
// testdata/wire/transcript.txt, which an earlier build wrote. Paths,
// query keys, JSON field order, status codes and error envelopes must
// not drift. Besides one success per verb the script pins an empty
// scan and an empty batchget (both `[]`, never `null`), a missed get,
// a NotServing 409, a stale-epoch 421, a not_leader 421, an unknown
// server's 404, garbled-query and undecodable-body 400s, and a stopped
// master's 503. Run with -update to rewrite the file from the current
// code; only do that when the wire is meant to change.
func TestWireFormatUnchanged(t *testing.T) {
	clock := newTestClock()
	reg := NewRegistry()
	rsA := NewRegionServer("rs-a", reg)
	rsB := NewRegionServer("rs-b", reg)
	for _, rs := range []*RegionServer{rsA, rsB} {
		rs.now, rs.HStore().WallClock = clock.now, clock.now
	}
	m0 := NewMaster(reg, MasterOptions{Replication: 2, DefaultSplits: []string{"m"}, Now: clock.now})
	defer m0.Close()
	peers := []Peer{{ID: "m-0", Addr: "http://m0"}, {ID: "m-1", Addr: "http://m1"}}
	m1 := NewMaster(NewRegistry(), MasterOptions{ID: "m-1", Peers: peers, Standby: true, Now: clock.now})
	defer m1.Close()

	tap := &wireTap{hosts: map[string]http.Handler{
		"rs-a": RegionServerHandler(rsA),
		"rs-b": RegionServerHandler(rsB),
		"m0":   MasterHandler(m0),
		"m1":   MasterHandler(m1),
	}}
	step := func(label string) { tap.label = label }
	ctx := context.Background()
	mc, pc := tappedMaster(tap, "m0")
	standby, standbyPeer := tappedMaster(tap, "m1")

	// Control plane: two servers join (in-process peers, so the
	// master's own RPCs to them stay off the tape), a table is made.
	step("join")
	for _, id := range []string{"rs-a", "rs-b"} {
		if err := mc.Join(Peer{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	step("heartbeat")
	if err := mc.Heartbeat("rs-a"); err != nil {
		t.Fatal(err)
	}
	step("heartbeat unknown server")
	if err := mc.Heartbeat("rs-z"); err == nil {
		t.Fatal("heartbeat from an unknown server succeeded")
	}
	step("createtable")
	if err := mc.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	step("createtable on a standby")
	if err := standby.CreateTable("t"); err == nil {
		t.Fatal("standby created a table")
	}
	step("meta")
	meta, err := mc.Meta()
	if err != nil {
		t.Fatal(err)
	}
	step("status")
	tap.raw(t, http.MethodGet, "http://m0/d/status", "")

	// Region 0 holds keys below "m": talk to its primary and follower.
	g := meta.Tables["t"][0]
	if len(g.Followers) != 1 {
		t.Fatalf("region 0 = %+v, want one follower", g)
	}
	pri, fol := tappedServerConn(tap, g.Primary), tappedServerConn(tap, g.Followers[0])

	step("put")
	if err := pri.Put(ctx, "t", "a", "c", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	step("batchput")
	rows := []hstore.Row{
		{Key: "b", Columns: map[string][]byte{"c": []byte("v2"), "d": []byte("w")}},
		{Key: "c", Columns: map[string][]byte{"c": []byte("v3")}},
	}
	if err := pri.BatchPut(ctx, "t", rows); err != nil {
		t.Fatal(err)
	}
	step("apply")
	if err := fol.Apply("t", []hstore.Cell{{Row: "e", Column: "c", Ts: 1 << 40, Value: []byte("v5")}}); err != nil {
		t.Fatal(err)
	}
	step("get")
	if _, ok, err := pri.Get(ctx, "t", "a"); err != nil || !ok {
		t.Fatalf("get a: ok=%v err=%v", ok, err)
	}
	step("get missing row")
	if _, ok, err := pri.Get(ctx, "t", "bb"); err != nil || ok {
		t.Fatalf("get missing: ok=%v err=%v", ok, err)
	}
	step("fget")
	if _, ok, err := fol.FollowerGet(ctx, "t", "b"); err != nil || !ok {
		t.Fatalf("fget b: ok=%v err=%v", ok, err)
	}
	step("get on a follower (not serving)")
	if _, _, err := fol.Get(ctx, "t", "b"); !hstore.IsNotServing(err) {
		t.Fatalf("get on follower = %v, want NotServing", err)
	}
	step("batchget")
	if _, _, err := pri.BatchGet(ctx, "t", []string{"a", "b", "d"}); err != nil {
		t.Fatal(err)
	}
	step("batchget empty")
	if got, _, err := pri.BatchGet(ctx, "t", nil); err != nil || got == nil {
		t.Fatalf("empty batchget = %v, %v; want a non-nil empty slice", got, err)
	}
	step("scan")
	if _, err := pri.Scan(ctx, "t", g.ID, "", "m", nil, 0); err != nil {
		t.Fatal(err)
	}
	step("scan filtered, projected, limited")
	f := hstore.Project(&hstore.PrefixFilter{Prefix: "b"}, "d")
	if _, err := pri.Scan(ctx, "t", g.ID, "a", "m", f, 1); err != nil {
		t.Fatal(err)
	}
	step("scan empty")
	if got, err := pri.Scan(ctx, "t", g.ID, "", "m", &hstore.PrefixFilter{Prefix: "q"}, 0); err != nil || got == nil || len(got) != 0 {
		t.Fatalf("empty scan = %v, %v; want a non-nil empty slice", got, err)
	}
	step("fscan")
	if _, err := fol.FollowerScan(ctx, "t", g.ID, "", "m", nil, 0); err != nil {
		t.Fatal(err)
	}
	step("deleterow")
	if err := pri.DeleteRow(ctx, "t", "c"); err != nil {
		t.Fatal(err)
	}
	step("flush")
	if err := pri.Flush("t"); err != nil {
		t.Fatal(err)
	}
	step("stats")
	if _, err := pri.Stats(); err != nil {
		t.Fatal(err)
	}
	step("stats reset")
	if err := pri.ResetStats(); err != nil {
		t.Fatal(err)
	}
	step("health")
	if _, err := pri.Health(); err != nil {
		t.Fatal(err)
	}
	step("export")
	snap, err := pri.Export("t", g.ID)
	if err != nil {
		t.Fatal(err)
	}

	// A copy of region 0 under table "u": install fenced at master
	// epoch 7, promote, then see a deposed epoch refused and the copy
	// dropped.
	snap.Table = "u"
	step("install")
	if err := fol.Install(snap, 7); err != nil {
		t.Fatal(err)
	}
	step("role")
	if err := fol.SetRole("u", g.ID, true, nil, 7); err != nil {
		t.Fatal(err)
	}
	step("drop at a stale master epoch")
	if err := fol.Drop("u", g.ID, 3); err == nil {
		t.Fatal("drop at a deposed epoch succeeded")
	}
	step("drop")
	if err := fol.Drop("u", g.ID, 7); err != nil {
		t.Fatal(err)
	}

	step("move")
	tap.raw(t, http.MethodGet, "http://m0/d/move?table=t&region=1&to="+meta.Tables["t"][1].Followers[0], "")

	// Master to master.
	step("ping")
	if _, err := pc.Ping("m-1"); err != nil {
		t.Fatal(err)
	}
	step("image")
	img, err := pc.PullImage(0, 0)
	if err != nil || len(img.Frame) == 0 {
		t.Fatalf("pull = %d bytes, %v", len(img.Frame), err)
	}
	step("image, none newer")
	v := m0.journal.image().version()
	if img, err := pc.PullImage(v.masterEpoch, v.epoch); err != nil || img.Frame != nil {
		t.Fatalf("pull at the held version = %d bytes, %v", len(img.Frame), err)
	}
	step("image push")
	if err := standbyPeer.PushImage("m-0", img); err != nil {
		t.Fatal(err)
	}
	step("image push to a leader")
	if err := pc.PushImage("m-1", img); err == nil {
		t.Fatal("leader accepted a pushed image")
	}
	step("ha status")
	tap.raw(t, http.MethodGet, "http://m0/m/status", "")

	// What no client sends.
	step("garbled query")
	for _, u := range []string{
		"http://rs-a/d/export?table=t&region=abc",
		"http://rs-a/d/drop?table=t&region=0&mepoch=seven",
		"http://m0/d/move?table=t&region=1x&to=rs-a",
		"http://m0/m/image?master_epoch=abc&epoch=0",
	} {
		tap.raw(t, http.MethodGet, u, "")
	}
	step("undecodable body")
	tap.raw(t, http.MethodPost, "http://rs-a/d/put", `{"table":`)
	tap.raw(t, http.MethodPost, "http://rs-a/d/scan", `{"table":"t","filter":{"kind":"nope"}}`)
	step("unknown path")
	tap.raw(t, http.MethodGet, "http://rs-a/d/nosuch", "")
	step("stopped master")
	m0.Stop()
	tap.raw(t, http.MethodGet, "http://m0/d/meta", "")
	tap.raw(t, http.MethodGet, "http://m0/d/status", "")

	path := filepath.Join("testdata", "wire", "transcript.txt")
	got := tap.log.Bytes()
	if *updateWire {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("wire transcript differs at line %d:\n got:  %s\n want: %s", i+1, g, w)
			}
		}
	}
}

// regionServerVerbs is every path RegionServerHandler serves, in the
// order FuzzRegionServerWire's verb byte indexes them.
var regionServerVerbs = []string{
	"/d/put", "/d/batchput", "/d/apply", "/d/get", "/d/fget", "/d/health",
	"/d/batchget", "/d/scan", "/d/fscan", "/d/deleterow", "/d/flush",
	"/d/stats", "/d/install", "/d/export", "/d/drop", "/d/role",
}

// noNetwork refuses every request, so a fuzzed follower address can
// never make the server under test open a socket.
type noNetwork struct{}

func (noNetwork) RoundTrip(*http.Request) (*http.Response, error) {
	return nil, fmt.Errorf("no network in this test")
}

// FuzzRegionServerWire sends one request — a verb from the list, any
// query, any body — to RegionServerHandler over a seeded in-process
// server and an httptest.ResponseRecorder. The handler must not panic;
// a 200 answer must be JSON and any other an httperr envelope. The seed
// corpus under testdata/fuzz holds one well-formed request per verb and
// a few malformed ones.
func FuzzRegionServerWire(f *testing.F) {
	f.Fuzz(func(t *testing.T, verb uint8, rawQuery string, body []byte) {
		reg := NewRegistry()
		reg.WrapConn = func(_ string, c ServerConn) ServerConn {
			if hc, ok := c.(*httpServerConn); ok {
				return &httpServerConn{h: &httpJSON{base: hc.h.base, hc: &http.Client{Transport: noNetwork{}}}}
			}
			return c
		}
		rs := NewRegionServer("rs", reg)
		if err := rs.Install(&hstore.RegionSnapshot{Table: "t"}, 0); err != nil {
			t.Fatal(err)
		}
		if err := rs.SetRole("t", 0, true, nil, 0); err != nil {
			t.Fatal(err)
		}
		if err := rs.BatchPut(context.Background(), "t", []hstore.Row{
			{Key: "a", Columns: map[string][]byte{"c": []byte("v1")}},
			{Key: "b", Columns: map[string][]byte{"c": []byte("v2"), "d": []byte("w")}},
		}); err != nil {
			t.Fatal(err)
		}

		method := http.MethodGet
		if len(body) > 0 {
			method = http.MethodPost
		}
		req := httptest.NewRequest(method, "/", bytes.NewReader(body))
		req.URL.Path = regionServerVerbs[int(verb)%len(regionServerVerbs)]
		req.URL.RawQuery = rawQuery
		rec := httptest.NewRecorder()
		RegionServerHandler(rs).ServeHTTP(rec, req)

		got := rec.Body.Bytes()
		if rec.Code == http.StatusOK {
			if !json.Valid(got) {
				t.Fatalf("%s %s?%s: 200 with a body that is not JSON: %q", method, req.URL.Path, rawQuery, got)
			}
		} else if _, ok := httperr.Parse(got); !ok {
			t.Fatalf("%s %s?%s: %d with a body that is not an httperr envelope: %q", method, req.URL.Path, rawQuery, rec.Code, got)
		}
	})
}

// TestMasterStoppedClassifiesAsStopped: a stopped master names itself
// in its error, and every classifier treats that error exactly as it
// treats a stopped region server's — retryable, a breaker failure, not
// a master outage, and a 503 unavailable on the wire.
func TestMasterStoppedClassifiesAsStopped(t *testing.T) {
	if got := errMasterStopped.Error(); got != "dstore: master stopped" {
		t.Errorf("errMasterStopped reads %q", got)
	}
	for _, wrap := range []func(error) error{
		func(err error) error { return err },
		func(err error) error { return fmt.Errorf("rpc: %w", err) },
	} {
		stopped, master := wrap(errStopped), wrap(errMasterStopped)
		if retryable(master) != retryable(stopped) || breakerFailure(master) != breakerFailure(stopped) ||
			masterOutage(master) != masterOutage(stopped) {
			t.Errorf("%v classifies unlike %v", master, stopped)
		}
		a, b := httptest.NewRecorder(), httptest.NewRecorder()
		writeHTTPErr(a, stopped)
		writeHTTPErr(b, master)
		ea, _ := httperr.Parse(a.Body.Bytes())
		eb, _ := httperr.Parse(b.Body.Bytes())
		if a.Code != b.Code || ea.Code != eb.Code || b.Code != http.StatusServiceUnavailable {
			t.Errorf("%v answers %d %s, %v answers %d %s", stopped, a.Code, ea.Code, master, b.Code, eb.Code)
		}
	}
}
