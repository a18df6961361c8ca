package dstore

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"pstorm/internal/hstore"
	"pstorm/internal/httperr"
)

// HTTP wire protocol. Every endpoint is JSON over POST/GET under /d/
// (and /m/ between masters), each one httperr.Handle registration below.
// Errors name their codes where they are made, so retryability survives
// the wire: NotServing is 409 (the client re-routes), a stopped server
// 503, a client fault 400. Rows cross as hstore.Row.

type putWire struct {
	Table  string `json:"table"`
	Row    string `json:"row"`
	Column string `json:"column"`
	Value  []byte `json:"value"`
}

type batchWire struct {
	Table string       `json:"table"`
	Rows  []hstore.Row `json:"rows"`
}

type batchGetWire struct {
	Table string   `json:"table"`
	Rows  []string `json:"rows"`
}

type batchGetRespWire struct {
	Found []bool       `json:"found"`
	Rows  []hstore.Row `json:"rows"`
}

type getRespWire struct {
	Found bool       `json:"found"`
	Row   hstore.Row `json:"row"`
}

type applyWire struct {
	Table string        `json:"table"`
	Cells []hstore.Cell `json:"cells"`
}

type scanWire struct {
	Table  string          `json:"table"`
	Region int             `json:"region"`
	Start  string          `json:"start"`
	End    string          `json:"end"`
	Filter json.RawMessage `json:"filter,omitempty"`
	Limit  int             `json:"limit"`
}

type installWire struct {
	Snapshot    *hstore.RegionSnapshot `json:"snapshot"`
	MasterEpoch int64                  `json:"master_epoch,omitempty"`
}

type roleWire struct {
	Table       string `json:"table"`
	Region      int    `json:"region"`
	Primary     bool   `json:"primary"`
	Followers   []Peer `json:"followers,omitempty"`
	MasterEpoch int64  `json:"master_epoch,omitempty"`
}

// nonNil keeps an empty row set `[]` on the wire and non-nil in the
// caller's hands.
func nonNil(rows []hstore.Row) []hstore.Row {
	if rows == nil {
		return []hstore.Row{}
	}
	return rows
}

// done is the answer of a verb that returns nothing but success.
func done(err error) (any, error) { return map[string]string{"status": "ok"}, err }

// queryInts parses numeric query values, in key order. A missing key is
// 0 — an absent mepoch is the unfenced single-master case — but a
// garbled one is an error (400 bad_request), never read as a silent 0
// that would name region 0 or wave a deposed master through the epoch
// fence.
func queryInts(q url.Values, keys ...string) ([]int64, error) {
	out := make([]int64, len(keys))
	for i, k := range keys {
		if !q.Has(k) {
			continue
		}
		n, err := strconv.ParseInt(q.Get(k), 10, 64)
		if err != nil {
			return nil, httperr.Errorf(httperr.CodeBadRequest, "dstore: query value %s=%q is not an integer", k, q.Get(k))
		}
		out[i] = n
	}
	return out, nil
}

// RegionServerHandler exposes a region server over HTTP.
func RegionServerHandler(rs *RegionServer) http.Handler {
	mux := http.NewServeMux()
	httperr.Handle(mux, "/d/put", func(r *http.Request, req *putWire) (any, error) {
		return done(rs.Put(r.Context(), req.Table, req.Row, req.Column, req.Value))
	})
	httperr.Handle(mux, "/d/batchput", func(r *http.Request, req *batchWire) (any, error) {
		return done(rs.BatchPut(r.Context(), req.Table, req.Rows))
	})
	httperr.Handle(mux, "/d/apply", func(_ *http.Request, req *applyWire) (any, error) {
		return done(rs.Apply(req.Table, req.Cells))
	})
	for path, get := range map[string]func(context.Context, string, string) (hstore.Row, bool, error){
		"/d/get": rs.Get, "/d/fget": rs.FollowerGet,
	} {
		httperr.Handle(mux, path, func(r *http.Request, q *url.Values) (any, error) {
			row, found, err := get(r.Context(), q.Get("table"), q.Get("row"))
			return getRespWire{Found: found, Row: row}, err
		})
	}
	httperr.Handle(mux, "/d/health", func(*http.Request, *url.Values) (any, error) { return rs.Health() })
	httperr.Handle(mux, "/d/batchget", func(r *http.Request, req *batchGetWire) (any, error) {
		rows, found, err := rs.BatchGet(r.Context(), req.Table, req.Rows)
		return batchGetRespWire{Found: found, Rows: nonNil(rows)}, err
	})
	for path, scan := range map[string]func(context.Context, string, int, string, string, hstore.Filter, int) ([]hstore.Row, error){
		"/d/scan": rs.Scan, "/d/fscan": rs.FollowerScan,
	} {
		httperr.Handle(mux, path, func(r *http.Request, req *scanWire) (any, error) {
			var f hstore.Filter
			if len(req.Filter) > 0 {
				var err error
				if f, err = hstore.DecodeFilter(req.Filter); err != nil {
					return nil, httperr.Errorf(httperr.CodeBadRequest, "%w", err)
				}
			}
			rows, err := scan(r.Context(), req.Table, req.Region, req.Start, req.End, f, req.Limit)
			return nonNil(rows), err
		})
	}
	httperr.Handle(mux, "/d/deleterow", func(r *http.Request, q *url.Values) (any, error) {
		return done(rs.DeleteRow(r.Context(), q.Get("table"), q.Get("row")))
	})
	httperr.Handle(mux, "/d/flush", func(_ *http.Request, q *url.Values) (any, error) { return done(rs.Flush(q.Get("table"))) })
	httperr.Handle(mux, "/d/stats", func(_ *http.Request, q *url.Values) (any, error) {
		if q.Get("reset") == "1" {
			if err := rs.ResetStats(); err != nil {
				return nil, err
			}
		}
		return rs.Stats()
	})
	httperr.Handle(mux, "/d/install", func(_ *http.Request, req *installWire) (any, error) {
		return done(rs.Install(req.Snapshot, req.MasterEpoch))
	})
	httperr.Handle(mux, "/d/export", func(_ *http.Request, q *url.Values) (any, error) {
		v, err := queryInts(*q, "region")
		if err != nil {
			return nil, err
		}
		return rs.Export(q.Get("table"), int(v[0]))
	})
	httperr.Handle(mux, "/d/drop", func(_ *http.Request, q *url.Values) (any, error) {
		v, err := queryInts(*q, "region", "mepoch")
		if err != nil {
			return nil, err
		}
		return done(rs.Drop(q.Get("table"), int(v[0]), v[1]))
	})
	httperr.Handle(mux, "/d/role", func(_ *http.Request, req *roleWire) (any, error) {
		return done(rs.SetRole(req.Table, req.Region, req.Primary, req.Followers, req.MasterEpoch))
	})
	return mux
}

// MasterHandler exposes a master over HTTP.
func MasterHandler(m *Master) http.Handler {
	mux := http.NewServeMux()
	httperr.Handle(mux, "/d/join", func(_ *http.Request, p *Peer) (any, error) { return done(m.Join(*p)) })
	httperr.Handle(mux, "/d/heartbeat", func(_ *http.Request, q *url.Values) (any, error) {
		return done(m.Heartbeat(q.Get("id")))
	})
	httperr.Handle(mux, "/d/meta", func(*http.Request, *url.Values) (any, error) { return ConnectMaster(m).Meta() })
	httperr.Handle(mux, "/d/createtable", func(_ *http.Request, q *url.Values) (any, error) {
		return done(m.CreateTable(q.Get("name")))
	})
	httperr.Handle(mux, "/d/move", func(_ *http.Request, q *url.Values) (any, error) {
		v, err := queryInts(*q, "region")
		if err != nil {
			return nil, err
		}
		n, err := m.MoveRegion(q.Get("table"), int(v[0]), q.Get("to"))
		return map[string]int64{"bytes_moved": n}, err
	})
	httperr.Handle(mux, "/d/status", func(*http.Request, *url.Values) (any, error) {
		if m.Stopped() {
			return nil, errMasterStopped
		}
		return m.Status(), nil
	})
	// Master-to-master endpoints: lease pings, catalog-image pull and
	// push, and the operator HA view.
	httperr.Handle(mux, "/m/ping", func(_ *http.Request, q *url.Values) (any, error) { return m.Ping(q.Get("from")) })
	httperr.Handle(mux, "/m/image", func(_ *http.Request, q *url.Values) (any, error) {
		v, err := queryInts(*q, "master_epoch", "epoch")
		if err != nil {
			return nil, err
		}
		return m.PullImage(v[0], v[1])
	})
	httperr.Handle(mux, "/m/image/push", func(r *http.Request, img *MetaImage) (any, error) {
		return done(m.PushImage(r.URL.Query().Get("from"), *img))
	})
	httperr.Handle(mux, "/m/status", func(*http.Request, *url.Values) (any, error) { return m.HAStatus() })
	return mux
}

// httpJSON is the shared request helper: POST body (or GET when body is
// nil), decode into out, map status codes back to typed errors.
type httpJSON struct {
	base string
	hc   *http.Client
}

// DefaultDialTimeout bounds every request of an HTTP conn dialed with
// timeout 0. A hung region server must fail the call, not wedge the
// matcher forever.
const DefaultDialTimeout = 10 * time.Second

func newHTTPJSON(base string, timeout time.Duration) *httpJSON {
	if timeout <= 0 {
		timeout = DefaultDialTimeout
	}
	return &httpJSON{base: base, hc: &http.Client{Timeout: timeout}}
}

// detachedCtx roots control-plane RPCs (join, heartbeats, catalog
// moves, role changes): they are owned by the master's and region
// servers' own lifecycles, not by any inbound request.
func detachedCtx() context.Context {
	return context.Background() //pstorm:allow ctxcheck control-plane RPCs are owned by the master/server lifecycle, not an inbound request
}

func (h *httpJSON) call(ctx context.Context, path string, body interface{}, out interface{}) error {
	var req *http.Request
	var err error
	if body != nil {
		raw, merr := json.Marshal(body)
		if merr != nil {
			return merr
		}
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, h.base+path, bytes.NewReader(raw))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	} else {
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, h.base+path, nil)
	}
	if err != nil {
		return fmt.Errorf("%w: %v", errTransport, err)
	}
	httperr.SetDeadlineHeader(req.Header, ctx)
	resp, err := h.hc.Do(req)
	if err != nil {
		// A dead caller is not a dead transport: surface the context
		// error so the retry loop stops instead of spinning on a
		// "retryable" failure the caller will never see resolved.
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		return fmt.Errorf("%w: %v", errTransport, err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%w: %v", errTransport, err)
	}
	// Error bodies are the shared JSON envelope; bare text (an old peer,
	// a proxy) still round-trips as the message.
	msg := string(bytes.TrimSpace(payload))
	code := ""
	if e, ok := httperr.Parse(payload); ok {
		msg, code = e.Message, e.Code
	}
	switch resp.StatusCode {
	case http.StatusOK:
		if out != nil {
			return json.Unmarshal(payload, out)
		}
		return nil
	case http.StatusConflict:
		return &hstore.NotServingError{Table: "remote", Row: msg}
	case http.StatusMisdirectedRequest:
		if code == httperr.CodeStaleMaster {
			return fmt.Errorf("%w: %s", ErrStaleMaster, msg)
		}
		// not_leader: the message is the redirect hint — an address if it
		// looks like a URL, else a master ID.
		nl := &NotLeaderError{}
		if strings.Contains(msg, "://") {
			nl.LeaderAddr = msg
		} else {
			nl.LeaderID = msg
		}
		return nl
	case http.StatusServiceUnavailable:
		return fmt.Errorf("%w: %s", errStopped, msg)
	case http.StatusGatewayTimeout:
		return fmt.Errorf("dstore: %s: %s: %w", path, msg, context.DeadlineExceeded)
	default:
		if code == httperr.CodeUnknownServer {
			return fmt.Errorf("%w: %s", ErrUnknownServer, msg)
		}
		return fmt.Errorf("dstore: %s: %s", path, msg)
	}
}

// httpServerConn speaks to a remote region server.
type httpServerConn struct{ h *httpJSON }

func newHTTPServerConn(base string, timeout time.Duration) *httpServerConn {
	return &httpServerConn{h: newHTTPJSON(base, timeout)}
}

func (c *httpServerConn) Put(ctx context.Context, table, row, column string, value []byte) error {
	return c.h.call(ctx, "/d/put", putWire{Table: table, Row: row, Column: column, Value: value}, nil)
}

func (c *httpServerConn) BatchPut(ctx context.Context, table string, rows []hstore.Row) error {
	return c.h.call(ctx, "/d/batchput", batchWire{Table: table, Rows: nonNil(rows)}, nil)
}

func (c *httpServerConn) Apply(table string, cells []hstore.Cell) error {
	return c.h.call(detachedCtx(), "/d/apply", applyWire{Table: table, Cells: cells}, nil)
}

func (c *httpServerConn) Get(ctx context.Context, table, row string) (hstore.Row, bool, error) {
	return c.get(ctx, "/d/get", table, row)
}

func (c *httpServerConn) FollowerGet(ctx context.Context, table, row string) (hstore.Row, bool, error) {
	return c.get(ctx, "/d/fget", table, row)
}

func (c *httpServerConn) get(ctx context.Context, path, table, row string) (hstore.Row, bool, error) {
	var resp getRespWire
	err := c.h.call(ctx, path+"?table="+url.QueryEscape(table)+"&row="+url.QueryEscape(row), nil, &resp)
	return resp.Row, resp.Found, err
}

func (c *httpServerConn) Health() (HealthReport, error) {
	var h HealthReport
	err := c.h.call(detachedCtx(), "/d/health", nil, &h)
	return h, err
}

func (c *httpServerConn) BatchGet(ctx context.Context, table string, rows []string) ([]hstore.Row, []bool, error) {
	var resp batchGetRespWire
	if err := c.h.call(ctx, "/d/batchget", batchGetWire{Table: table, Rows: rows}, &resp); err != nil {
		return nil, nil, err
	}
	return nonNil(resp.Rows), resp.Found, nil
}

func (c *httpServerConn) Scan(ctx context.Context, table string, regionID int, start, end string, f hstore.Filter, limit int) ([]hstore.Row, error) {
	return c.scan(ctx, "/d/scan", table, regionID, start, end, f, limit)
}

func (c *httpServerConn) FollowerScan(ctx context.Context, table string, regionID int, start, end string, f hstore.Filter, limit int) ([]hstore.Row, error) {
	return c.scan(ctx, "/d/fscan", table, regionID, start, end, f, limit)
}

func (c *httpServerConn) scan(ctx context.Context, path, table string, regionID int, start, end string, f hstore.Filter, limit int) ([]hstore.Row, error) {
	req := scanWire{Table: table, Region: regionID, Start: start, End: end, Limit: limit}
	if f != nil {
		wire, err := hstore.EncodeFilter(f)
		if err != nil {
			return nil, err
		}
		req.Filter = wire
	}
	var rows []hstore.Row
	if err := c.h.call(ctx, path, req, &rows); err != nil {
		return nil, err
	}
	return nonNil(rows), nil
}

func (c *httpServerConn) DeleteRow(ctx context.Context, table, row string) error {
	return c.h.call(ctx, "/d/deleterow?table="+url.QueryEscape(table)+"&row="+url.QueryEscape(row), nil, nil)
}

func (c *httpServerConn) Flush(table string) error {
	return c.h.call(detachedCtx(), "/d/flush?table="+url.QueryEscape(table), nil, nil)
}

func (c *httpServerConn) Stats() (hstore.TransferStats, error) {
	var st hstore.TransferStats
	err := c.h.call(detachedCtx(), "/d/stats", nil, &st)
	return st, err
}

func (c *httpServerConn) ResetStats() error {
	return c.h.call(detachedCtx(), "/d/stats?reset=1", nil, nil)
}

func (c *httpServerConn) Install(snap *hstore.RegionSnapshot, masterEpoch int64) error {
	return c.h.call(detachedCtx(), "/d/install", installWire{Snapshot: snap, MasterEpoch: masterEpoch}, nil)
}

func (c *httpServerConn) Export(table string, regionID int) (*hstore.RegionSnapshot, error) {
	var snap hstore.RegionSnapshot
	err := c.h.call(detachedCtx(), fmt.Sprintf("/d/export?table=%s&region=%d", url.QueryEscape(table), regionID), nil, &snap)
	if err != nil {
		return nil, err
	}
	return &snap, nil
}

func (c *httpServerConn) Drop(table string, regionID int, masterEpoch int64) error {
	return c.h.call(detachedCtx(), fmt.Sprintf("/d/drop?table=%s&region=%d&mepoch=%d", url.QueryEscape(table), regionID, masterEpoch), nil, nil)
}

func (c *httpServerConn) SetRole(table string, regionID int, primary bool, followers []Peer, masterEpoch int64) error {
	return c.h.call(detachedCtx(), "/d/role", roleWire{Table: table, Region: regionID, Primary: primary, Followers: followers, MasterEpoch: masterEpoch}, nil)
}

// httpMasterConn speaks to a remote master: the /d/ calls of region
// servers and clients (MasterConn) and the /m/ calls of master peers
// (MasterPeerConn).
type httpMasterConn struct{ h *httpJSON }

// DialMaster returns a MasterConn speaking HTTP to a pstormd master.
// timeout 0 uses DefaultDialTimeout.
func DialMaster(base string, timeout time.Duration) MasterConn {
	return &httpMasterConn{h: newHTTPJSON(base, timeout)}
}

// DialMasterPeer returns a MasterPeerConn speaking HTTP to a pstormd
// master. timeout 0 uses DefaultDialTimeout.
func DialMasterPeer(base string, timeout time.Duration) MasterPeerConn {
	return &httpMasterConn{h: newHTTPJSON(base, timeout)}
}

func (c *httpMasterConn) Join(p Peer) error { return c.h.call(detachedCtx(), "/d/join", p, nil) }

func (c *httpMasterConn) Heartbeat(id string) error {
	return c.h.call(detachedCtx(), "/d/heartbeat?id="+url.QueryEscape(id), nil, nil)
}

func (c *httpMasterConn) Meta() (Meta, error) {
	var m Meta
	err := c.h.call(detachedCtx(), "/d/meta", nil, &m)
	return m, err
}

func (c *httpMasterConn) CreateTable(table string) error {
	return c.h.call(detachedCtx(), "/d/createtable?name="+url.QueryEscape(table), nil, nil)
}

func (c *httpMasterConn) Ping(from string) (PeerStatus, error) {
	var st PeerStatus
	err := c.h.call(detachedCtx(), "/m/ping?from="+url.QueryEscape(from), nil, &st)
	return st, err
}

func (c *httpMasterConn) PullImage(masterEpoch, epoch int64) (MetaImage, error) {
	var img MetaImage
	err := c.h.call(detachedCtx(), fmt.Sprintf("/m/image?master_epoch=%d&epoch=%d", masterEpoch, epoch), nil, &img)
	return img, err
}

func (c *httpMasterConn) PushImage(from string, img MetaImage) error {
	return c.h.call(detachedCtx(), "/m/image/push?from="+url.QueryEscape(from), img, nil)
}
