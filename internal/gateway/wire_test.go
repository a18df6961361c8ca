package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pstorm/internal/cluster"
	"pstorm/internal/core"
	"pstorm/internal/dstore"
	"pstorm/internal/engine"
	"pstorm/internal/hstore"
	"pstorm/internal/workloads"
)

var updateWire = flag.Bool("update", false, "rewrite testdata/wire from the current code")

// failKV makes every point read and scan fail the way a store client
// fails once its retries ran out, while fail is set.
type failKV struct {
	core.KV
	fail atomic.Bool
}

func (f *failKV) Get(ctx context.Context, table, row string) (hstore.Row, bool, error) {
	if f.fail.Load() {
		return hstore.Row{}, false, fmt.Errorf("get %s: %w", row, dstore.ErrExhausted)
	}
	return f.KV.Get(ctx, table, row)
}

func (f *failKV) Scan(ctx context.Context, table, start, end string, fl hstore.Filter, limit int) ([]hstore.Row, error) {
	if f.fail.Load() {
		return nil, fmt.Errorf("scan %s: %w", table, dstore.ErrExhausted)
	}
	return f.KV.Scan(ctx, table, start, end, fl, limit)
}

// wireCall sends one request to h in process and returns its
// transcript entry: the label, the request line with its tenant header
// and body, then the status, content type, Retry-After and body of the
// answer.
func wireCall(h http.Handler, label, method, target, tenant, body string) string {
	req := httptest.NewRequest(http.MethodGet, target, strings.NewReader(body))
	req.Method = method
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var b strings.Builder
	fmt.Fprintf(&b, "### %s\n> %s %s %s=%q\n", label, method, target, TenantHeader, tenant)
	if body != "" {
		fmt.Fprintf(&b, "> %s\n", body)
	}
	fmt.Fprintf(&b, "< %d %s", rec.Code, rec.Header().Get("Content-Type"))
	if ra := rec.Header().Get("Retry-After"); ra != "" {
		fmt.Fprintf(&b, " Retry-After: %s", ra)
	}
	fmt.Fprintf(&b, "\n< %s", rec.Body.String())
	if !strings.HasSuffix(rec.Body.String(), "\n") {
		b.WriteString("\n\\ no newline at end of body\n")
	}
	return b.String()
}

// TestGatewayWireUnchanged sends every /g/* endpoint a success and
// every error envelope the gateway can answer with — wrong method,
// missing and invalid tenant, undecodable body, missing job_id,
// not_found, a tune deadline, the rate_limited, over_capacity (tenant
// and global) and shed_degraded sheds with their Retry-After, and an
// unavailable store — through Handler() in process, on an injected
// clock, and compares the transcript with testdata/wire/transcript.txt,
// which an earlier build wrote. Run with -update to rewrite the file;
// only do that when the wire is meant to change.
func TestGatewayWireUnchanged(t *testing.T) {
	clk := &fakeClock{t: time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)}
	gate := &gateKV{kv: hstore.Connect(hstore.NewServer())}
	kv := &failKV{KV: gate}
	eng := engine.New(cluster.Default16(), 7)
	opt := Options{KV: kv, Engine: eng, Seed: 7, Now: clk.now, Tenants: map[string]TenantConfig{
		"metered": {RatePerSec: 1, Burst: 1},
		"small":   {MaxInflight: 1},
		"paid":    {Priority: 1},
	}}
	g, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.MaxInflight = 1
	busy, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	prof := seedProfile(t, gate, "acme", eng)
	spec, err := workloads.JobByName("wordcount")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := json.Marshal(core.DefaultConfig(spec))
	if err != nil {
		t.Fatal(err)
	}
	h, hBusy := g.Handler(), busy.Handler()
	var log bytes.Buffer
	call := func(label, method, target, tenant, body string) {
		log.WriteString(wireCall(h, label, method, target, tenant, body))
	}
	// hold sends one request that parks on the closed gate, waits until
	// it is admitted (gauge reads 1), runs then, releases the gate and
	// logs the parked request after everything then logged.
	hold := func(hh http.Handler, gauge, label, target, tenant string, then func()) {
		gate.open()
		done := make(chan string, 1)
		go func() { done <- wireCall(hh, label, http.MethodGet, target, tenant, "") }()
		o := g.Obs()
		if hh == hBusy {
			o = busy.Obs()
		}
		waitFor(t, label+" to be admitted", func() bool { return o.Snapshot().Gauges[gauge] == 1 })
		then()
		gate.release()
		log.WriteString(<-done)
	}
	job := prof.JobID

	// One success per endpoint.
	call("profiles", http.MethodGet, "/g/profiles", "acme", "")
	call("profiles, tenant in the query, none stored", http.MethodGet, "/g/profiles?tenant=globex", "", "")
	call("tune", http.MethodPost, "/g/tune", "acme", fmt.Sprintf(`{"job_id":%q,"budget":8,"seed":3}`, job))
	call("whatif", http.MethodPost, "/g/whatif", "acme", fmt.Sprintf(`{"job_id":%q,"config":%s}`, job, cfg))
	call("match", http.MethodPost, "/g/match", "acme", `{"job":"wordcount","dataset":"randomtext-1g"}`)
	call("submit", http.MethodPost, "/g/submit", "acme", `{"job":"wordcount","dataset":"randomtext-1g","budget":6}`)

	// Requests the gateway refuses before doing any work.
	for _, c := range [][2]string{
		{http.MethodGet, "/g/tune"}, {http.MethodGet, "/g/whatif"}, {http.MethodGet, "/g/match"},
		{http.MethodPut, "/g/submit"}, {http.MethodPost, "/g/profiles"},
	} {
		call("wrong method", c[0], c[1], "acme", "")
	}
	call("tenant missing", http.MethodGet, "/g/profiles", "", "")
	call("tenant invalid", http.MethodGet, "/g/profiles", "A", "")
	call("tenant invalid", http.MethodGet, "/g/profiles?tenant=a!b", "", "")
	call("bad json", http.MethodPost, "/g/tune", "acme", `{"job_id":`)
	call("bad json", http.MethodPost, "/g/whatif", "acme", `[1`)
	call("bad json", http.MethodPost, "/g/match", "acme", `nope`)
	call("bad json", http.MethodPost, "/g/submit", "acme", `{"budget":"x"}`)
	call("bad json, empty body", http.MethodPost, "/g/tune", "acme", ``)
	call("job_id missing", http.MethodPost, "/g/tune", "acme", `{"budget":8}`)
	call("job_id missing", http.MethodPost, "/g/whatif", "acme", `{}`)

	// Requests for what the tenant does not have.
	call("not_found", http.MethodPost, "/g/tune", "acme", `{"job_id":"nope"}`)
	call("not_found, another tenant's job", http.MethodPost, "/g/tune", "globex", fmt.Sprintf(`{"job_id":%q}`, job))
	call("not_found", http.MethodPost, "/g/whatif", "acme", `{"job_id":"nope"}`)
	call("not_found", http.MethodPost, "/g/match", "acme", `{"job":"nope","dataset":"randomtext-1g"}`)
	call("not_found", http.MethodPost, "/g/match", "acme", `{"job":"wordcount","dataset":"nope"}`)
	call("not_found", http.MethodPost, "/g/submit", "acme", `{"job":"nope","dataset":"randomtext-1g"}`)
	call("not_found", http.MethodPost, "/g/submit", "acme", `{"job":"wordcount","dataset":"nope"}`)

	// A tune whose leader is parked at the gate past the caller's
	// deadline. The abandoned flight's seed is used by no later call.
	gate.open()
	call("deadline", http.MethodPost, "/g/tune", "acme", fmt.Sprintf(`{"job_id":%q,"seed":99,"deadline_ms":30}`, job))
	gate.release()

	// Sheds.
	call("profiles", http.MethodGet, "/g/profiles", "small", "")
	hold(h, `gateway_tenant_inflight{tenant="small"}`, "profiles, held", "/g/profiles", "small", func() {
		call("over_capacity, tenant ceiling", http.MethodGet, "/g/profiles", "small", "")
	})
	wireCall(hBusy, "", http.MethodGet, "/g/profiles", "acme", "")
	hold(hBusy, "gateway_inflight", "profiles, held", "/g/profiles", "acme", func() {
		log.WriteString(wireCall(hBusy, "over_capacity, global ceiling", http.MethodGet, "/g/profiles", "acme", ""))
	})
	call("profiles", http.MethodGet, "/g/profiles", "metered", "")
	call("rate_limited", http.MethodGet, "/g/profiles", "metered", "")
	clk.advance(time.Second)
	call("profiles, a token later", http.MethodGet, "/g/profiles", "metered", "")

	// A store out of retries: unavailable, then degraded sheds of
	// best-effort tenants until the cooldown passes.
	call("profiles", http.MethodGet, "/g/profiles", "paid", "")
	kv.fail.Store(true)
	call("unavailable", http.MethodGet, "/g/profiles", "acme", "")
	call("unavailable, priority tenant", http.MethodPost, "/g/tune", "paid", fmt.Sprintf(`{"job_id":%q,"seed":5}`, job))
	kv.fail.Store(false)
	call("shed_degraded", http.MethodGet, "/g/profiles", "acme", "")
	call("profiles, priority tenant while degraded", http.MethodGet, "/g/profiles", "paid", "")
	clk.advance(time.Second)
	call("profiles, after the cooldown", http.MethodGet, "/g/profiles", "acme", "")

	path := filepath.Join("testdata", "wire", "transcript.txt")
	got := log.Bytes()
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
