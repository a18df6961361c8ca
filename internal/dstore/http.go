package dstore

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
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

func queryEscape(s string) string { return url.QueryEscape(s) }

// HTTP wire protocol. Every endpoint is JSON over POST/GET under /d/.
// NotServing maps to 409 (the client re-routes), a stopped server to
// 503, anything else to 400 — so retryability survives the wire.

type wireRow struct {
	Key     string            `json:"key"`
	Columns map[string][]byte `json:"columns"`
}

func rowToWire(r hstore.Row) wireRow   { return wireRow{Key: r.Key, Columns: r.Columns} }
func rowFromWire(w wireRow) hstore.Row { return hstore.Row{Key: w.Key, Columns: w.Columns} }
func rowsToWire(rs []hstore.Row) []wireRow {
	out := make([]wireRow, len(rs))
	for i, r := range rs {
		out[i] = rowToWire(r)
	}
	return out
}
func rowsFromWire(ws []wireRow) []hstore.Row {
	out := make([]hstore.Row, len(ws))
	for i, w := range ws {
		out[i] = rowFromWire(w)
	}
	return out
}

type putWire struct {
	Table  string `json:"table"`
	Row    string `json:"row"`
	Column string `json:"column"`
	Value  []byte `json:"value"`
}

type batchWire struct {
	Table string    `json:"table"`
	Rows  []wireRow `json:"rows"`
}

type batchGetWire struct {
	Table string   `json:"table"`
	Rows  []string `json:"rows"`
}

type batchGetRespWire struct {
	Found []bool    `json:"found"`
	Rows  []wireRow `json:"rows"`
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

func writeHTTPErr(w http.ResponseWriter, err error) {
	status, code := http.StatusBadRequest, httperr.CodeBadRequest
	var nl *NotLeaderError
	switch {
	case hstore.IsNotServing(err):
		status, code = http.StatusConflict, httperr.CodeNotServing
	case errors.As(err, &nl):
		// 421: this server cannot answer, but another can. The message
		// is the redirect hint — an address when the standby knows one
		// (HTTP deployments), else the leader's ID.
		hint := nl.LeaderAddr
		if hint == "" {
			hint = nl.LeaderID
		}
		httperr.Write(w, http.StatusMisdirectedRequest, httperr.CodeNotLeader, hint, false)
		return
	case errors.Is(err, ErrStaleMaster):
		status, code = http.StatusMisdirectedRequest, httperr.CodeStaleMaster
	case errors.Is(err, ErrUnknownServer):
		status, code = http.StatusNotFound, httperr.CodeUnknownServer
	case retryable(err):
		status, code = http.StatusServiceUnavailable, httperr.CodeUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		// The server aborted because the caller's budget ran out (or the
		// caller hung up). Not retryable: the client is out of time.
		status, code = http.StatusGatewayTimeout, httperr.CodeDeadline
	}
	httperr.Write(w, status, code, err.Error(), false)
}

func writeJSONBody(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func decodeBody(r *http.Request, v interface{}) error {
	return json.NewDecoder(r.Body).Decode(v)
}

// queryInts parses numeric query values, in key order. A missing key is
// 0 — an absent mepoch is the unfenced single-master case — but a
// garbled one is answered 400 bad_request (ok false), never read as a
// silent 0 that would name region 0 or wave a deposed master through
// the epoch fence.
func queryInts(w http.ResponseWriter, r *http.Request, keys ...string) (out []int64, parsed bool) {
	q := r.URL.Query()
	out = make([]int64, len(keys))
	for i, k := range keys {
		if !q.Has(k) {
			continue
		}
		n, err := strconv.ParseInt(q.Get(k), 10, 64)
		if err != nil {
			writeHTTPErr(w, fmt.Errorf("dstore: query value %s=%q is not an integer", k, q.Get(k)))
			return nil, false
		}
		out[i] = n
	}
	return out, true
}

// RegionServerHandler exposes a region server over HTTP.
func RegionServerHandler(rs *RegionServer) http.Handler {
	mux := http.NewServeMux()
	ok := func(w http.ResponseWriter, err error) {
		if err != nil {
			writeHTTPErr(w, err)
			return
		}
		writeJSONBody(w, map[string]string{"status": "ok"})
	}
	mux.HandleFunc("/d/put", func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := httperr.ContextFromRequest(r)
		defer cancel()
		var req putWire
		if err := decodeBody(r, &req); err != nil {
			writeHTTPErr(w, err)
			return
		}
		ok(w, rs.Put(ctx, req.Table, req.Row, req.Column, req.Value))
	})
	mux.HandleFunc("/d/batchput", func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := httperr.ContextFromRequest(r)
		defer cancel()
		var req batchWire
		if err := decodeBody(r, &req); err != nil {
			writeHTTPErr(w, err)
			return
		}
		ok(w, rs.BatchPut(ctx, req.Table, rowsFromWire(req.Rows)))
	})
	mux.HandleFunc("/d/apply", func(w http.ResponseWriter, r *http.Request) {
		var req applyWire
		if err := decodeBody(r, &req); err != nil {
			writeHTTPErr(w, err)
			return
		}
		ok(w, rs.Apply(req.Table, req.Cells))
	})
	getHandler := func(get func(ctx context.Context, table, row string) (hstore.Row, bool, error)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			ctx, cancel := httperr.ContextFromRequest(r)
			defer cancel()
			row, found, err := get(ctx, r.URL.Query().Get("table"), r.URL.Query().Get("row"))
			if err != nil {
				writeHTTPErr(w, err)
				return
			}
			writeJSONBody(w, map[string]interface{}{"found": found, "row": rowToWire(row)})
		}
	}
	mux.HandleFunc("/d/get", getHandler(rs.Get))
	mux.HandleFunc("/d/fget", getHandler(rs.FollowerGet))
	mux.HandleFunc("/d/health", func(w http.ResponseWriter, r *http.Request) {
		h, err := rs.Health()
		if err != nil {
			writeHTTPErr(w, err)
			return
		}
		writeJSONBody(w, h)
	})
	mux.HandleFunc("/d/batchget", func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := httperr.ContextFromRequest(r)
		defer cancel()
		var req batchGetWire
		if err := decodeBody(r, &req); err != nil {
			writeHTTPErr(w, err)
			return
		}
		rows, found, err := rs.BatchGet(ctx, req.Table, req.Rows)
		if err != nil {
			writeHTTPErr(w, err)
			return
		}
		writeJSONBody(w, batchGetRespWire{Found: found, Rows: rowsToWire(rows)})
	})
	scanHandler := func(scan func(ctx context.Context, table string, regionID int, start, end string, f hstore.Filter, limit int) ([]hstore.Row, error)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			ctx, cancel := httperr.ContextFromRequest(r)
			defer cancel()
			var req scanWire
			if err := decodeBody(r, &req); err != nil {
				writeHTTPErr(w, err)
				return
			}
			var f hstore.Filter
			if len(req.Filter) > 0 {
				var err error
				if f, err = hstore.DecodeFilter(req.Filter); err != nil {
					writeHTTPErr(w, err)
					return
				}
			}
			rows, err := scan(ctx, req.Table, req.Region, req.Start, req.End, f, req.Limit)
			if err != nil {
				writeHTTPErr(w, err)
				return
			}
			writeJSONBody(w, rowsToWire(rows))
		}
	}
	mux.HandleFunc("/d/scan", scanHandler(rs.Scan))
	mux.HandleFunc("/d/fscan", scanHandler(rs.FollowerScan))
	mux.HandleFunc("/d/deleterow", func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := httperr.ContextFromRequest(r)
		defer cancel()
		ok(w, rs.DeleteRow(ctx, r.URL.Query().Get("table"), r.URL.Query().Get("row")))
	})
	mux.HandleFunc("/d/flush", func(w http.ResponseWriter, r *http.Request) {
		ok(w, rs.Flush(r.URL.Query().Get("table")))
	})
	mux.HandleFunc("/d/stats", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("reset") == "1" {
			if err := rs.ResetStats(); err != nil {
				writeHTTPErr(w, err)
				return
			}
		}
		st, err := rs.Stats()
		if err != nil {
			writeHTTPErr(w, err)
			return
		}
		writeJSONBody(w, st)
	})
	mux.HandleFunc("/d/install", func(w http.ResponseWriter, r *http.Request) {
		var req installWire
		if err := decodeBody(r, &req); err != nil {
			writeHTTPErr(w, err)
			return
		}
		ok(w, rs.Install(req.Snapshot, req.MasterEpoch))
	})
	mux.HandleFunc("/d/export", func(w http.ResponseWriter, r *http.Request) {
		v, parsed := queryInts(w, r, "region")
		if !parsed {
			return
		}
		snap, err := rs.Export(r.URL.Query().Get("table"), int(v[0]))
		if err != nil {
			writeHTTPErr(w, err)
			return
		}
		writeJSONBody(w, snap)
	})
	mux.HandleFunc("/d/drop", func(w http.ResponseWriter, r *http.Request) {
		if v, parsed := queryInts(w, r, "region", "mepoch"); parsed {
			ok(w, rs.Drop(r.URL.Query().Get("table"), int(v[0]), v[1]))
		}
	})
	mux.HandleFunc("/d/role", func(w http.ResponseWriter, r *http.Request) {
		var req roleWire
		if err := decodeBody(r, &req); err != nil {
			writeHTTPErr(w, err)
			return
		}
		ok(w, rs.SetRole(req.Table, req.Region, req.Primary, req.Followers, req.MasterEpoch))
	})
	return mux
}

// MasterHandler exposes a master over HTTP.
func MasterHandler(m *Master) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/d/join", func(w http.ResponseWriter, r *http.Request) {
		var p Peer
		if err := decodeBody(r, &p); err != nil {
			writeHTTPErr(w, err)
			return
		}
		if err := m.Join(p); err != nil {
			writeHTTPErr(w, err)
			return
		}
		writeJSONBody(w, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/d/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		if err := m.Heartbeat(r.URL.Query().Get("id")); err != nil {
			writeHTTPErr(w, err)
			return
		}
		writeJSONBody(w, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/d/meta", func(w http.ResponseWriter, r *http.Request) {
		if m.Stopped() {
			writeHTTPErr(w, errStopped)
			return
		}
		writeJSONBody(w, m.Meta())
	})
	mux.HandleFunc("/d/createtable", func(w http.ResponseWriter, r *http.Request) {
		if err := m.CreateTable(r.URL.Query().Get("name")); err != nil {
			writeHTTPErr(w, err)
			return
		}
		writeJSONBody(w, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/d/move", func(w http.ResponseWriter, r *http.Request) {
		v, parsed := queryInts(w, r, "region")
		if !parsed {
			return
		}
		n, err := m.MoveRegion(r.URL.Query().Get("table"), int(v[0]), r.URL.Query().Get("to"))
		if err != nil {
			writeHTTPErr(w, err)
			return
		}
		writeJSONBody(w, map[string]int64{"bytes_moved": n})
	})
	mux.HandleFunc("/d/status", func(w http.ResponseWriter, r *http.Request) {
		if m.Stopped() {
			writeHTTPErr(w, errStopped)
			return
		}
		writeJSONBody(w, m.Status())
	})
	// Master-to-master endpoints: lease pings, catalog-image pull and
	// push, and the operator HA view.
	mux.HandleFunc("/m/ping", func(w http.ResponseWriter, r *http.Request) {
		st, err := m.Ping(r.URL.Query().Get("from"))
		if err != nil {
			writeHTTPErr(w, err)
			return
		}
		writeJSONBody(w, st)
	})
	mux.HandleFunc("/m/image", func(w http.ResponseWriter, r *http.Request) {
		v, parsed := queryInts(w, r, "master_epoch", "epoch")
		if !parsed {
			return
		}
		img, err := m.PullImage(v[0], v[1])
		if err != nil {
			writeHTTPErr(w, err)
			return
		}
		writeJSONBody(w, img)
	})
	mux.HandleFunc("/m/image/push", func(w http.ResponseWriter, r *http.Request) {
		var img MetaImage
		if err := decodeBody(r, &img); err != nil {
			writeHTTPErr(w, err)
			return
		}
		if err := m.PushImage(r.URL.Query().Get("from"), img); err != nil {
			writeHTTPErr(w, err)
			return
		}
		writeJSONBody(w, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/m/status", func(w http.ResponseWriter, r *http.Request) {
		st, err := m.HAStatus()
		if err != nil {
			writeHTTPErr(w, err)
			return
		}
		writeJSONBody(w, st)
	})
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
	return c.h.call(ctx, "/d/batchput", batchWire{Table: table, Rows: rowsToWire(rows)}, nil)
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
	var resp struct {
		Found bool    `json:"found"`
		Row   wireRow `json:"row"`
	}
	if err := c.h.call(ctx, path+"?table="+queryEscape(table)+"&row="+queryEscape(row), nil, &resp); err != nil {
		return hstore.Row{}, false, err
	}
	return rowFromWire(resp.Row), resp.Found, nil
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
	return rowsFromWire(resp.Rows), resp.Found, nil
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
	var ws []wireRow
	if err := c.h.call(ctx, path, req, &ws); err != nil {
		return nil, err
	}
	return rowsFromWire(ws), nil
}

func (c *httpServerConn) DeleteRow(ctx context.Context, table, row string) error {
	return c.h.call(ctx, "/d/deleterow?table="+queryEscape(table)+"&row="+queryEscape(row), nil, nil)
}

func (c *httpServerConn) Flush(table string) error {
	return c.h.call(detachedCtx(), "/d/flush?table="+queryEscape(table), nil, nil)
}

func (c *httpServerConn) Stats() (hstore.TransferStats, error) {
	var st hstore.TransferStats
	err := c.h.call(detachedCtx(), "/d/stats", nil, &st)
	return st, err
}

func (c *httpServerConn) ResetStats() error {
	var st hstore.TransferStats
	return c.h.call(detachedCtx(), "/d/stats?reset=1", nil, &st)
}

func (c *httpServerConn) Install(snap *hstore.RegionSnapshot, masterEpoch int64) error {
	return c.h.call(detachedCtx(), "/d/install", installWire{Snapshot: snap, MasterEpoch: masterEpoch}, nil)
}

func (c *httpServerConn) Export(table string, regionID int) (*hstore.RegionSnapshot, error) {
	var snap hstore.RegionSnapshot
	err := c.h.call(detachedCtx(), fmt.Sprintf("/d/export?table=%s&region=%d", queryEscape(table), regionID), nil, &snap)
	if err != nil {
		return nil, err
	}
	return &snap, nil
}

func (c *httpServerConn) Drop(table string, regionID int, masterEpoch int64) error {
	return c.h.call(detachedCtx(), fmt.Sprintf("/d/drop?table=%s&region=%d&mepoch=%d", queryEscape(table), regionID, masterEpoch), nil, nil)
}

func (c *httpServerConn) SetRole(table string, regionID int, primary bool, followers []Peer, masterEpoch int64) error {
	return c.h.call(detachedCtx(), "/d/role", roleWire{Table: table, Region: regionID, Primary: primary, Followers: followers, MasterEpoch: masterEpoch}, nil)
}

// httpMasterConn speaks to a remote master.
type httpMasterConn struct{ h *httpJSON }

// DialMaster returns a MasterConn speaking HTTP to a pstormd master.
// timeout 0 uses DefaultDialTimeout.
func DialMaster(base string, timeout time.Duration) MasterConn {
	return &httpMasterConn{h: newHTTPJSON(base, timeout)}
}

func (c *httpMasterConn) Join(p Peer) error { return c.h.call(detachedCtx(), "/d/join", p, nil) }

func (c *httpMasterConn) Heartbeat(id string) error {
	return c.h.call(detachedCtx(), "/d/heartbeat?id="+queryEscape(id), nil, nil)
}

func (c *httpMasterConn) Meta() (Meta, error) {
	var m Meta
	err := c.h.call(detachedCtx(), "/d/meta", nil, &m)
	return m, err
}

func (c *httpMasterConn) CreateTable(table string) error {
	return c.h.call(detachedCtx(), "/d/createtable?name="+queryEscape(table), nil, nil)
}

// httpPeerConn speaks master-to-master HTTP: lease pings, image pulls,
// and image pushes against a peer's /m/ endpoints.
type httpPeerConn struct{ h *httpJSON }

// DialMasterPeer returns a MasterPeerConn speaking HTTP to a pstormd
// master. timeout 0 uses DefaultDialTimeout.
func DialMasterPeer(base string, timeout time.Duration) MasterPeerConn {
	return &httpPeerConn{h: newHTTPJSON(base, timeout)}
}

func (c *httpPeerConn) Ping(from string) (PeerStatus, error) {
	var st PeerStatus
	err := c.h.call(detachedCtx(), "/m/ping?from="+queryEscape(from), nil, &st)
	return st, err
}

func (c *httpPeerConn) PullImage(masterEpoch, epoch int64) (MetaImage, error) {
	var img MetaImage
	err := c.h.call(detachedCtx(), fmt.Sprintf("/m/image?master_epoch=%d&epoch=%d", masterEpoch, epoch), nil, &img)
	return img, err
}

func (c *httpPeerConn) PushImage(from string, img MetaImage) error {
	return c.h.call(detachedCtx(), "/m/image/push?from="+queryEscape(from), img, nil)
}
