package main

import (
	"context"
	"io"
	"net/http"
	"path"
	"strconv"
	"sync/atomic"

	"pstorm/internal/core"
	"pstorm/internal/dstore"
	"pstorm/internal/hstore"
	"pstorm/internal/matcher"
	"pstorm/internal/profile"
)

// The decorators in this file are how the traced pass sees inside the
// program without touching it: each wraps a seam the program already
// exposes (core.KV, matcher.Store, dstore.ServerConn through
// Registry.WrapConn, an http.Handler) and records one span and one
// count per call.

// kvBackend is core.KV plus the batched read both store clients offer;
// core.Store finds MultiGet by type assertion, so the decorator must
// keep it visible.
type kvBackend interface {
	core.KV
	MultiGet(ctx context.Context, table string, rows []string) ([]hstore.Row, []bool, error)
}

// traceKV decorates the column-store client a core.Store (or a gateway)
// sits on. layer is the module the calls enter: hstore for the
// in-process store, dstore.client for the routing client.
type traceKV struct {
	kv    kvBackend
	tr    *tracer
	layer string
	calls atomic.Int64
}

func (k *traceKV) span(ctx context.Context, name string) (context.Context, spanEnd) {
	k.calls.Add(1)
	return k.tr.begin(ctx, k.layer, name, "", "")
}

func (k *traceKV) CreateTable(ctx context.Context, table string) error {
	ctx, sp := k.span(ctx, "create_table")
	defer sp.end()
	return k.kv.CreateTable(ctx, table)
}

func (k *traceKV) Put(ctx context.Context, table, row, column string, value []byte) error {
	ctx, sp := k.span(ctx, "put")
	defer sp.end()
	return k.kv.Put(ctx, table, row, column, value)
}

func (k *traceKV) PutRow(ctx context.Context, table string, r hstore.Row) error {
	ctx, sp := k.span(ctx, "put_row")
	defer sp.end()
	return k.kv.PutRow(ctx, table, r)
}

func (k *traceKV) Get(ctx context.Context, table, row string) (hstore.Row, bool, error) {
	ctx, sp := k.span(ctx, "get")
	defer sp.end()
	return k.kv.Get(ctx, table, row)
}

func (k *traceKV) MultiGet(ctx context.Context, table string, rows []string) ([]hstore.Row, []bool, error) {
	ctx, sp := k.span(ctx, "multi_get")
	defer sp.end()
	return k.kv.MultiGet(ctx, table, rows)
}

func (k *traceKV) Scan(ctx context.Context, table, start, end string, f hstore.Filter, limit int) ([]hstore.Row, error) {
	ctx, sp := k.span(ctx, "scan")
	defer sp.end()
	return k.kv.Scan(ctx, table, start, end, f, limit)
}

func (k *traceKV) DeleteRow(ctx context.Context, table, row string) error {
	ctx, sp := k.span(ctx, "delete_row")
	defer sp.end()
	return k.kv.DeleteRow(ctx, table, row)
}

// traceMatchStore decorates the matcher's view of the profile store:
// its spans are the core layer (core.Store turning matcher questions
// into row reads), and it counts the keys stage 2 asks for.
type traceMatchStore struct {
	st         *core.Store
	tr         *tracer
	stage2Keys atomic.Int64
}

func (m *traceMatchStore) span(ctx context.Context, name string) (context.Context, spanEnd) {
	return m.tr.begin(ctx, layerCore, name, "", "")
}

func (m *traceMatchStore) ScanFeatures(ctx context.Context, ftype string, f hstore.Filter) ([]matcher.Entry, error) {
	ctx, sp := m.span(ctx, "scan_features")
	defer sp.end()
	return m.st.ScanFeatures(ctx, ftype, f)
}

func (m *traceMatchStore) GetFeatures(ctx context.Context, ftype, jobID string) (hstore.Row, bool, error) {
	ctx, sp := m.span(ctx, "get_features")
	defer sp.end()
	m.stage2Keys.Add(1)
	return m.st.GetFeatures(ctx, ftype, jobID)
}

func (m *traceMatchStore) MultiGetFeatures(ctx context.Context, ftype string, jobIDs []string) (map[string]hstore.Row, error) {
	ctx, sp := m.span(ctx, "multi_get_features")
	defer sp.end()
	m.stage2Keys.Add(int64(len(jobIDs)))
	return m.st.MultiGetFeatures(ctx, ftype, jobIDs)
}

func (m *traceMatchStore) Bounds(ctx context.Context, ftype string, features []string) ([]float64, []float64, error) {
	ctx, sp := m.span(ctx, "bounds")
	defer sp.end()
	return m.st.Bounds(ctx, ftype, features)
}

func (m *traceMatchStore) LoadProfile(ctx context.Context, jobID string) (*profile.Profile, error) {
	ctx, sp := m.span(ctx, "load_profile")
	defer sp.end()
	return m.st.LoadProfile(ctx, jobID)
}

var _ matcher.MultiGetStore = (*traceMatchStore)(nil)

// traceConn decorates one dstore.ServerConn, installed through
// Registry.WrapConn. Data-path calls that carry a context become
// children of the client call that made them; Apply carries none, so
// it is an orphan that adopts the write it replicates.
type traceConn struct {
	dstore.ServerConn
	tr     *tracer
	layer  string // dstore.rs in process, dstore.wire over HTTP
	server string // the callee
	// applyAdopt is the key of the spans an Apply through this conn
	// belongs under (see wrapConn).
	applyAdopt string
}

// Span keys: a client-side call to server S's operation op carries
// "c:S/op", which the server-side handler span adopts over HTTP; writes
// also answer to writeKey so in-process replication can find them.
const writeKey = "w"

func (c *traceConn) span(ctx context.Context, op string, write bool) (context.Context, spanEnd) {
	key := "c:" + c.server + "/" + op
	if write && c.layer == layerRS {
		key = writeKey
	}
	return c.tr.begin(ctx, c.layer, op, key, "")
}

func (c *traceConn) Put(ctx context.Context, table, row, column string, value []byte) error {
	ctx, sp := c.span(ctx, "put", true)
	defer sp.end()
	return c.ServerConn.Put(ctx, table, row, column, value)
}

func (c *traceConn) BatchPut(ctx context.Context, table string, rows []hstore.Row) error {
	ctx, sp := c.span(ctx, "batchput", true)
	defer sp.end()
	return c.ServerConn.BatchPut(ctx, table, rows)
}

func (c *traceConn) DeleteRow(ctx context.Context, table, row string) error {
	ctx, sp := c.span(ctx, "deleterow", true)
	defer sp.end()
	return c.ServerConn.DeleteRow(ctx, table, row)
}

func (c *traceConn) Apply(table string, cells []hstore.Cell) error {
	_, sp := c.tr.begin(context.Background(), layerRepl, "apply", "c:"+c.server+"/apply", c.applyAdopt)
	defer sp.end()
	return c.ServerConn.Apply(table, cells)
}

func (c *traceConn) Get(ctx context.Context, table, row string) (hstore.Row, bool, error) {
	ctx, sp := c.span(ctx, "get", false)
	defer sp.end()
	return c.ServerConn.Get(ctx, table, row)
}

func (c *traceConn) FollowerGet(ctx context.Context, table, row string) (hstore.Row, bool, error) {
	ctx, sp := c.span(ctx, "fget", false)
	defer sp.end()
	return c.ServerConn.FollowerGet(ctx, table, row)
}

func (c *traceConn) BatchGet(ctx context.Context, table string, rows []string) ([]hstore.Row, []bool, error) {
	ctx, sp := c.span(ctx, "batchget", false)
	defer sp.end()
	return c.ServerConn.BatchGet(ctx, table, rows)
}

func (c *traceConn) Scan(ctx context.Context, table string, regionID int, start, end string, f hstore.Filter, limit int) ([]hstore.Row, error) {
	ctx, sp := c.span(ctx, "scan", false)
	defer sp.end()
	return c.ServerConn.Scan(ctx, table, regionID, start, end, f, limit)
}

func (c *traceConn) FollowerScan(ctx context.Context, table string, regionID int, start, end string, f hstore.Filter, limit int) ([]hstore.Row, error) {
	ctx, sp := c.span(ctx, "fscan", false)
	defer sp.end()
	return c.ServerConn.FollowerScan(ctx, table, regionID, start, end, f, limit)
}

// wrapConn builds a Registry.WrapConn hook. layer says what a call
// through the conn enters; applyAdopt is the key replication calls
// adopt ("w" in process, the owning leader's handler key over HTTP).
func wrapConn(tr *tracer, layer, applyAdopt string) func(string, dstore.ServerConn) dstore.ServerConn {
	return func(id string, conn dstore.ServerConn) dstore.ServerConn {
		return &traceConn{ServerConn: conn, tr: tr, layer: layer, server: id, applyAdopt: applyAdopt}
	}
}

// wireBytes counts the HTTP bodies crossing a region server's handler.
type wireBytes struct {
	in, out atomic.Int64
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

type countingWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (w countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n.Add(int64(n))
	return n, err
}

// regionHandler decorates one region server's /d/* handler: it counts
// body bytes and, when tracing, records the server-side span of each
// call. The wire carries no trace header, so the span is an orphan that
// adopts the client-side call to the same server and operation; write
// handlers carry a key of their own for the replication calls they make.
func regionHandler(h http.Handler, tr *tracer, server string, bytes *wireBytes) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if bytes != nil {
			r.Body = countingBody{r.Body, &bytes.in}
			w = countingWriter{w, &bytes.out}
		}
		op := path.Base(r.URL.Path)
		layer, key := layerRS, ""
		switch op {
		case "apply":
			layer = layerRepl
		case "put", "batchput", "deleterow":
			key = handlerKey(server)
		}
		ctx, sp := tr.begin(r.Context(), layer, "handle_"+op, key, "c:"+server+"/"+op)
		defer sp.end()
		h.ServeHTTP(w, r.WithContext(ctx))
	})
}

func handlerKey(server string) string { return "h:" + server }

// benchSpanHeader carries the generator's span id to the gateway
// handler decorator, so a gateway request's server side hangs under its
// client side exactly (the generator builds these requests itself).
const benchSpanHeader = "X-Bench-Span"

// gatewayHandler decorates gateway.Handler(): one gateway-layer span
// per request, under the generator's span named in the header.
func gatewayHandler(h http.Handler, tr *tracer) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.Atoi(r.Header.Get(benchSpanHeader))
		ctx, sp := tr.childOf(r.Context(), int32(parent), layerGateway, "handle_"+path.Base(r.URL.Path))
		defer sp.end()
		h.ServeHTTP(w, r.WithContext(ctx))
	})
}
