package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pstorm/internal/cluster"
	"pstorm/internal/core"
	"pstorm/internal/engine"
	"pstorm/internal/hstore"
	"pstorm/internal/httperr"
	"pstorm/internal/profile"
	"pstorm/internal/whatif"
	"pstorm/internal/workloads"
)

// gateKV wraps a core.KV so tests can freeze every point read: while
// the gate is held, Get blocks. That pins a coalesced flight's leader
// inside LoadProfile so tests can deterministically pile joiners onto
// the same flight before any evaluation happens. It deliberately does
// NOT implement MultiGet, forcing the store onto the gated Get path.
type gateKV struct {
	kv core.KV

	mu   sync.Mutex
	hold chan struct{}
}

func (g *gateKV) open() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.hold = make(chan struct{})
}

func (g *gateKV) release() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.hold != nil {
		close(g.hold)
		g.hold = nil
	}
}

func (g *gateKV) wait() {
	g.mu.Lock()
	h := g.hold
	g.mu.Unlock()
	if h != nil {
		<-h
	}
}

func (g *gateKV) Get(ctx context.Context, table, row string) (hstore.Row, bool, error) {
	g.wait()
	return g.kv.Get(ctx, table, row)
}

func (g *gateKV) CreateTable(ctx context.Context, table string) error {
	return g.kv.CreateTable(ctx, table)
}
func (g *gateKV) Put(ctx context.Context, table, row, column string, value []byte) error {
	return g.kv.Put(ctx, table, row, column, value)
}
func (g *gateKV) PutRow(ctx context.Context, table string, r hstore.Row) error {
	return g.kv.PutRow(ctx, table, r)
}
func (g *gateKV) Scan(ctx context.Context, table, start, end string, f hstore.Filter, limit int) ([]hstore.Row, error) {
	g.wait()
	return g.kv.Scan(ctx, table, start, end, f, limit)
}
func (g *gateKV) DeleteRow(ctx context.Context, table, row string) error {
	return g.kv.DeleteRow(ctx, table, row)
}

// seedProfile collects one profiled run and stores it in the tenant's
// namespace, returning its job id.
func seedProfile(t testing.TB, kv core.KV, tenant string, eng *engine.Engine) *profile.Profile {
	t.Helper()
	st, err := core.NewTenantStore(context.Background(), kv, tenant)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := workloads.JobByName("wordcount")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := workloads.DatasetByName("randomtext-1g")
	if err != nil {
		t.Fatal(err)
	}
	run, err := eng.Run(spec, ds, core.DefaultConfig(spec), engine.RunOptions{Profiling: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutProfile(context.Background(), run.Profile); err != nil {
		t.Fatal(err)
	}
	return run.Profile
}

func newTestGateway(t *testing.T, opt Options) (*Gateway, *httptest.Server) {
	t.Helper()
	if opt.KV == nil {
		opt.KV = hstore.Connect(hstore.NewServer())
	}
	if opt.Seed == 0 {
		opt.Seed = 7
	}
	g, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(g.Handler())
	t.Cleanup(srv.Close)
	return g, srv
}

func doReq(t *testing.T, method, url, tenant string, body any) (int, []byte, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw, resp.Header
}

func envelopeCode(t *testing.T, raw []byte) string {
	t.Helper()
	e, ok := httperr.Parse(raw)
	if !ok {
		t.Fatalf("response is not an error envelope: %s", raw)
	}
	return e.Code
}

// waitFor polls cond for up to ~5s of wall time.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < 5000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// prime forces the gateway to build a tenant's serving state (store
// bootstrap included) before a test closes the gate over the KV.
func prime(t *testing.T, srv *httptest.Server, tenant string) {
	t.Helper()
	if status, _, _ := doReq(t, http.MethodGet, srv.URL+"/g/profiles", tenant, nil); status != http.StatusOK {
		t.Fatalf("prime %s: status %d", tenant, status)
	}
}

// flightWaiters reports how many callers are attached to the gateway's
// in-flight coalesced evaluations.
func flightWaiters(g *Gateway) int {
	g.flights.mu.Lock()
	defer g.flights.mu.Unlock()
	n := 0
	for _, f := range g.flights.flights {
		n += f.waiters
	}
	return n
}

// TestCoalescingSingleEvaluation is the headline coalescing contract:
// K concurrent identical tune requests perform exactly one evaluation.
func TestCoalescingSingleEvaluation(t *testing.T) {
	gate := &gateKV{kv: hstore.Connect(hstore.NewServer())}
	eng := engine.New(cluster.Default16(), 7)
	g, srv := newTestGateway(t, Options{KV: gate, Engine: eng})
	prof := seedProfile(t, gate, "acme", eng)

	const K = 8
	prime(t, srv, "acme")
	gate.open() // freeze the leader inside LoadProfile
	body := TuneRequest{JobID: prof.JobID, Budget: 8, Seed: 3}

	var wg sync.WaitGroup
	statuses := make([]int, K)
	resps := make([]TuneResponse, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, raw, _ := doReq(t, http.MethodPost, srv.URL+"/g/tune", "acme", body)
			statuses[i] = status
			if status == http.StatusOK {
				if err := json.Unmarshal(raw, &resps[i]); err != nil {
					t.Error(err)
				}
			}
		}(i)
	}
	// Everyone must be attached to the one flight before the evaluation
	// is allowed to proceed — otherwise a straggler arriving after the
	// flight completed would lead a second one.
	waitFor(t, "all requests to join the flight", func() bool { return flightWaiters(g) == K })
	gate.release()
	wg.Wait()

	leaders := 0
	for i, status := range statuses {
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d", i, status)
		}
		if !resps[i].Coalesced {
			leaders++
		}
		if resps[i].Config != resps[0].Config || resps[i].PredictedMs != resps[0].PredictedMs {
			t.Errorf("request %d got a different answer than request 0", i)
		}
	}
	if leaders != 1 {
		t.Errorf("coalesced=false on %d responses, want exactly 1 leader", leaders)
	}

	snap := g.Obs().Snapshot()
	if got, want := snap.Counters["tune_evaluations_total"], int64(resps[0].Evaluations); got != want {
		t.Errorf("tune_evaluations_total = %d, want %d (exactly one evaluation run)", got, want)
	}
	if got := snap.Counters["gateway_coalesce_leaders_total"]; got != 1 {
		t.Errorf("gateway_coalesce_leaders_total = %d, want 1", got)
	}
	if got := snap.Counters["gateway_coalesce_hits_total"]; got != K-1 {
		t.Errorf("gateway_coalesce_hits_total = %d, want %d", got, K-1)
	}
	if h, ok := snap.Histograms["tune_latency_ms"]; !ok || h.Count != 1 {
		t.Errorf("tune_latency_ms count = %+v, want exactly 1 observation", h)
	}
}

// TestTuneIgnoresLegacyWorkersField: the tune request once carried a
// "workers" width. A client that still sends it gets the same answer as
// one that does not, and the two share one flight, because the field is
// neither decoded nor part of the coalescing key.
func TestTuneIgnoresLegacyWorkersField(t *testing.T) {
	gate := &gateKV{kv: hstore.Connect(hstore.NewServer())}
	eng := engine.New(cluster.Default16(), 7)
	g, srv := newTestGateway(t, Options{KV: gate, Engine: eng})
	prof := seedProfile(t, gate, "acme", eng)

	prime(t, srv, "acme")
	gate.open() // freeze the leader inside LoadProfile
	bodies := []map[string]any{
		{"job_id": prof.JobID, "seed": 3, "workers": 8},
		{"job_id": prof.JobID, "seed": 3},
	}
	var wg sync.WaitGroup
	var resps [2]TuneResponse
	for i, body := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, raw, _ := doReq(t, http.MethodPost, srv.URL+"/g/tune", "acme", body)
			if status != http.StatusOK {
				t.Errorf("tune %d: status %d: %s", i, status, raw)
				return
			}
			if err := json.Unmarshal(raw, &resps[i]); err != nil {
				t.Error(err)
			}
		}()
	}
	waitFor(t, "both tunes on one flight", func() bool { return flightWaiters(g) == 2 })
	gate.release()
	wg.Wait()

	if resps[0].Config != resps[1].Config || resps[0].PredictedMs != resps[1].PredictedMs {
		t.Errorf("answers differ: %+v vs %+v", resps[0], resps[1])
	}
	if resps[0].Coalesced == resps[1].Coalesced {
		t.Errorf("want exactly one leader, got coalesced=%v/%v", resps[0].Coalesced, resps[1].Coalesced)
	}
	if got := g.Obs().Snapshot().Counters["gateway_coalesce_leaders_total"]; got != 1 {
		t.Errorf("gateway_coalesce_leaders_total = %d, want 1", got)
	}
}

// TestCanceledJoinerKeepsFlightAlive: a caller abandoning a coalesced
// evaluation must not cancel it for the caller still waiting.
func TestCanceledJoinerKeepsFlightAlive(t *testing.T) {
	gate := &gateKV{kv: hstore.Connect(hstore.NewServer())}
	eng := engine.New(cluster.Default16(), 7)
	g, srv := newTestGateway(t, Options{KV: gate, Engine: eng})
	prof := seedProfile(t, gate, "acme", eng)

	prime(t, srv, "acme")
	gate.open()
	body, _ := json.Marshal(TuneRequest{JobID: prof.JobID, Budget: 8})

	// Survivor: plain request that must complete.
	type result struct {
		status int
		resp   TuneResponse
	}
	surv := make(chan result, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/g/tune", bytes.NewReader(body))
		req.Header.Set(TenantHeader, "acme")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			surv <- result{status: -1}
			return
		}
		defer resp.Body.Close()
		var tr TuneResponse
		_ = json.NewDecoder(resp.Body).Decode(&tr)
		surv <- result{status: resp.StatusCode, resp: tr}
	}()

	// Quitter: same request with a cancelable context.
	ctx, cancel := context.WithCancel(context.Background())
	quit := make(chan error, 1)
	go func() {
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/g/tune", bytes.NewReader(body))
		req.Header.Set(TenantHeader, "acme")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		quit <- err
	}()

	waitFor(t, "both callers on one flight", func() bool { return flightWaiters(g) == 2 })
	cancel()
	if err := <-quit; err == nil {
		t.Error("canceled caller should see an error")
	}
	// The abandoned caller must not have torn down the shared flight.
	waitFor(t, "quitter to detach", func() bool { return flightWaiters(g) == 1 })
	gate.release()

	r := <-surv
	if r.status != http.StatusOK {
		t.Fatalf("surviving caller got status %d, want 200", r.status)
	}
	if r.resp.Evaluations <= 0 {
		t.Errorf("surviving caller got %d evaluations, want > 0 (evaluation must have completed)", r.resp.Evaluations)
	}
	snap := g.Obs().Snapshot()
	if got := snap.Counters["tune_evaluations_total"]; got != int64(r.resp.Evaluations) {
		t.Errorf("tune_evaluations_total = %d, want %d", got, r.resp.Evaluations)
	}
}

// TestTenantIsolation: two tenants sharing one store never see each
// other's profiles — via the API and via direct key inspection.
func TestTenantIsolation(t *testing.T) {
	kv := hstore.Connect(hstore.NewServer())
	eng := engine.New(cluster.Default16(), 7)
	_, srv := newTestGateway(t, Options{KV: kv, Engine: eng})
	prof := seedProfile(t, kv, "acme", eng)

	// acme can tune its profile.
	status, raw, _ := doReq(t, http.MethodPost, srv.URL+"/g/tune", "acme",
		TuneRequest{JobID: prof.JobID, Budget: 6})
	if status != http.StatusOK {
		t.Fatalf("acme tune: status %d: %s", status, raw)
	}

	// globex, asking for the identical job id, must get a clean 404 —
	// not acme's data.
	status, raw, _ = doReq(t, http.MethodPost, srv.URL+"/g/tune", "globex",
		TuneRequest{JobID: prof.JobID, Budget: 6})
	if status != http.StatusNotFound {
		t.Fatalf("globex tune of acme's job: status %d, want 404: %s", status, raw)
	}
	if code := envelopeCode(t, raw); code != httperr.CodeNotFound {
		t.Errorf("envelope code = %q, want %q", code, httperr.CodeNotFound)
	}

	// Profile listings are disjoint.
	status, raw, _ = doReq(t, http.MethodGet, srv.URL+"/g/profiles?tenant=acme", "", nil)
	if status != http.StatusOK {
		t.Fatalf("acme profiles: status %d", status)
	}
	var pr ProfilesResponse
	if err := json.Unmarshal(raw, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.JobIDs) != 1 || pr.JobIDs[0] != prof.JobID {
		t.Errorf("acme profiles = %v, want exactly [%s]", pr.JobIDs, prof.JobID)
	}
	status, raw, _ = doReq(t, http.MethodGet, srv.URL+"/g/profiles", "globex", nil)
	if status != http.StatusOK {
		t.Fatalf("globex profiles: status %d", status)
	}
	if err := json.Unmarshal(raw, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.JobIDs) != 0 {
		t.Errorf("globex profiles = %v, want empty", pr.JobIDs)
	}

	// Direct key inspection: every row the seed wrote carries the
	// tenant namespace; nothing landed in the shared (un-namespaced)
	// key space.
	rows, err := kv.Scan(context.Background(), core.TableName, "", "\xff", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows stored")
	}
	for _, r := range rows {
		if !strings.Contains(r.Key, "acme!") {
			t.Errorf("row key %q lacks the acme! namespace", r.Key)
		}
	}

	// Tenant ids that could forge their way across namespaces are
	// rejected outright.
	for _, bad := range []string{"a/b", "a!b", "A", "", strings.Repeat("x", 65)} {
		status, raw, _ = doReq(t, http.MethodGet, srv.URL+"/g/profiles", bad, nil)
		want := http.StatusBadRequest
		if status != want {
			t.Errorf("tenant %q: status %d, want %d: %s", bad, status, want, raw)
		}
	}
}

// fakeClock is a hand-cranked admission clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// TestQuotaRateLimit: an over-rate tenant is shed with 429 +
// Retry-After while the bucket refills on the injected clock.
func TestQuotaRateLimit(t *testing.T) {
	clk := &fakeClock{t: time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)}
	g, srv := newTestGateway(t, Options{
		Now:     clk.now,
		Tenants: map[string]TenantConfig{"metered": {RatePerSec: 1, Burst: 1}},
	})

	status, _, _ := doReq(t, http.MethodGet, srv.URL+"/g/profiles", "metered", nil)
	if status != http.StatusOK {
		t.Fatalf("first request: status %d, want 200", status)
	}
	status, raw, hdr := doReq(t, http.MethodGet, srv.URL+"/g/profiles", "metered", nil)
	if status != http.StatusTooManyRequests {
		t.Fatalf("second request: status %d, want 429", status)
	}
	if code := envelopeCode(t, raw); code != httperr.CodeRateLimited {
		t.Errorf("envelope code = %q, want %q", code, httperr.CodeRateLimited)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	// The noisy tenant's empty bucket sheds nobody else.
	if status, _, _ := doReq(t, http.MethodGet, srv.URL+"/g/profiles", "quiet", nil); status != http.StatusOK {
		t.Fatalf("unmetered tenant while metered is shed: status %d, want 200", status)
	}
	clk.advance(time.Second) // one token accrues
	status, _, _ = doReq(t, http.MethodGet, srv.URL+"/g/profiles", "metered", nil)
	if status != http.StatusOK {
		t.Fatalf("post-refill request: status %d, want 200", status)
	}
	snap := g.Obs().Snapshot()
	key := `gateway_shed_total{reason="rate_limited",tenant="metered"}`
	if got := snap.Counters[key]; got != 1 {
		t.Errorf("%s = %d, want 1 (snapshot: %v)", key, got, snap.Counters)
	}
	for k := range snap.Counters {
		if strings.HasPrefix(k, "gateway_shed_total") && strings.Contains(k, `tenant="quiet"`) {
			t.Errorf("unmetered tenant has a shed series: %s", k)
		}
	}
}

// TestTuneCacheSizeSumsTenants: every tenant's evaluator reports into
// the gateway's one registry, so tune_cache_size must be their sum, not
// whichever tenant was built last.
func TestTuneCacheSizeSumsTenants(t *testing.T) {
	kv := hstore.Connect(hstore.NewServer())
	eng := engine.New(cluster.Default16(), 7)
	g, srv := newTestGateway(t, Options{KV: kv, Engine: eng})
	want := 0
	for tenant, budget := range map[string]int{"acme": 6, "globex": 12} {
		prof := seedProfile(t, kv, tenant, eng)
		status, raw, _ := doReq(t, http.MethodPost, srv.URL+"/g/tune", tenant,
			TuneRequest{JobID: prof.JobID, Budget: budget})
		if status != http.StatusOK {
			t.Fatalf("%s tune: status %d: %s", tenant, status, raw)
		}
		g.mu.Lock()
		n := g.tenants[tenant].sys.Evaluator.Len()
		g.mu.Unlock()
		if n == 0 {
			t.Fatalf("%s evaluator cached nothing", tenant)
		}
		want += n
	}
	if got := g.Obs().Snapshot().Gauges["tune_cache_size"]; got != float64(want) {
		t.Errorf("tune_cache_size = %v, want %d (sum over both tenants)", got, want)
	}
}

// TestDegradedShedsByPriority: while the store is degraded, only
// tenants at or below the shed priority are turned away.
func TestDegradedShedsByPriority(t *testing.T) {
	var degraded atomic.Bool
	_, srv := newTestGateway(t, Options{
		DegradedFn: func() bool { return degraded.Load() },
		Tenants: map[string]TenantConfig{
			"free": {Priority: 0},
			"paid": {Priority: 1},
		},
	})

	degraded.Store(true)
	status, raw, hdr := doReq(t, http.MethodGet, srv.URL+"/g/profiles", "free", nil)
	if status != http.StatusTooManyRequests {
		t.Fatalf("free tenant while degraded: status %d, want 429", status)
	}
	if code := envelopeCode(t, raw); code != httperr.CodeShedDegraded {
		t.Errorf("envelope code = %q, want %q", code, httperr.CodeShedDegraded)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	e, _ := httperr.Parse(raw)
	if !e.Degraded {
		t.Error("degraded flag not set on shed envelope")
	}
	if status, _, _ = doReq(t, http.MethodGet, srv.URL+"/g/profiles", "paid", nil); status != http.StatusOK {
		t.Fatalf("paid tenant while degraded: status %d, want 200", status)
	}
	degraded.Store(false)
	if status, _, _ = doReq(t, http.MethodGet, srv.URL+"/g/profiles", "free", nil); status != http.StatusOK {
		t.Fatalf("free tenant after recovery: status %d, want 200", status)
	}
}

// TestGlobalInflightCeiling: past the global cap, requests are shed
// with 429 over_capacity rather than queued.
func TestGlobalInflightCeiling(t *testing.T) {
	gate := &gateKV{kv: hstore.Connect(hstore.NewServer())}
	g, srv := newTestGateway(t, Options{KV: gate, MaxInflight: 1})

	// Prime the tenant so its store bootstrap isn't under the gate.
	if status, _, _ := doReq(t, http.MethodGet, srv.URL+"/g/profiles", "acme", nil); status != http.StatusOK {
		t.Fatalf("prime request failed")
	}

	gate.open()
	done := make(chan int, 1)
	go func() {
		status, _, _ := doReq(t, http.MethodGet, srv.URL+"/g/profiles", "acme", nil)
		done <- status
	}()
	waitFor(t, "first request to occupy the gateway", func() bool {
		g.mu.Lock()
		defer g.mu.Unlock()
		return g.inflight == 1
	})
	status, raw, _ := doReq(t, http.MethodGet, srv.URL+"/g/profiles", "acme", nil)
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-capacity request: status %d, want 429", status)
	}
	if code := envelopeCode(t, raw); code != httperr.CodeOverCapacity {
		t.Errorf("envelope code = %q, want %q", code, httperr.CodeOverCapacity)
	}
	gate.release()
	if status := <-done; status != http.StatusOK {
		t.Fatalf("held request: status %d, want 200", status)
	}
}

// TestPerTenantInflightCeiling: one tenant's concurrency ceiling does
// not throttle another tenant.
func TestPerTenantInflightCeiling(t *testing.T) {
	gate := &gateKV{kv: hstore.Connect(hstore.NewServer())}
	g, srv := newTestGateway(t, Options{
		KV:      gate,
		Tenants: map[string]TenantConfig{"small": {MaxInflight: 1}},
	})
	for _, tn := range []string{"small", "other"} {
		if status, _, _ := doReq(t, http.MethodGet, srv.URL+"/g/profiles", tn, nil); status != http.StatusOK {
			t.Fatalf("prime %s failed", tn)
		}
	}

	gate.open()
	done := make(chan int, 1)
	go func() {
		status, _, _ := doReq(t, http.MethodGet, srv.URL+"/g/profiles", "small", nil)
		done <- status
	}()
	waitFor(t, "small tenant to occupy its slot", func() bool {
		g.mu.Lock()
		defer g.mu.Unlock()
		return g.inflight == 1
	})
	status, raw, _ := doReq(t, http.MethodGet, srv.URL+"/g/profiles", "small", nil)
	if status != http.StatusTooManyRequests {
		t.Fatalf("small over ceiling: status %d, want 429", status)
	}
	if code := envelopeCode(t, raw); code != httperr.CodeOverCapacity {
		t.Errorf("envelope code = %q, want %q", code, httperr.CodeOverCapacity)
	}
	// An unrelated tenant sails through. Its Get also blocks on the
	// gate, so release first and verify afterwards via a fresh hold-
	// free request.
	gate.release()
	if status := <-done; status != http.StatusOK {
		t.Fatalf("held small request: status %d, want 200", status)
	}
	if status, _, _ := doReq(t, http.MethodGet, srv.URL+"/g/profiles", "other", nil); status != http.StatusOK {
		t.Fatalf("other tenant: status %d, want 200", status)
	}
}

// TestWhatIfCoalescesOnQuantizedConfig: two configs that quantize to
// the same canonical point share one flight and one answer.
func TestWhatIfCoalescesOnQuantizedConfig(t *testing.T) {
	gate := &gateKV{kv: hstore.Connect(hstore.NewServer())}
	eng := engine.New(cluster.Default16(), 7)
	g, srv := newTestGateway(t, Options{KV: gate, Engine: eng})
	prof := seedProfile(t, gate, "acme", eng)

	spec, err := workloads.JobByName("wordcount")
	if err != nil {
		t.Fatal(err)
	}
	cfgA := core.DefaultConfig(spec)
	cfgB := cfgA
	// A sub-grid float perturbation: Quantize rounds onto the 1e-6
	// grid, so this config asks the exact same canonical question.
	cfgB.IOSortSpillPercent += 1e-9

	prime(t, srv, "acme")
	gate.open()
	var wg sync.WaitGroup
	var ms [2]float64
	var coalesced [2]bool
	for i, cfg := range []struct{ c any }{{cfgA}, {cfgB}} {
		wg.Add(1)
		go func(i int, c any) {
			defer wg.Done()
			status, raw, _ := doReq(t, http.MethodPost, srv.URL+"/g/whatif", "acme",
				map[string]any{"job_id": prof.JobID, "config": c})
			if status != http.StatusOK {
				t.Errorf("whatif %d: status %d: %s", i, status, raw)
				return
			}
			var resp WhatIfResponse
			if err := json.Unmarshal(raw, &resp); err != nil {
				t.Error(err)
				return
			}
			ms[i] = resp.PredictedMs
			coalesced[i] = resp.Coalesced
		}(i, cfg.c)
	}
	waitFor(t, "both whatifs on one flight", func() bool { return flightWaiters(g) == 2 })
	gate.release()
	wg.Wait()

	if ms[0] != ms[1] || ms[0] <= 0 {
		t.Errorf("predictions differ or are non-positive: %v", ms)
	}
	if coalesced[0] == coalesced[1] {
		t.Errorf("want exactly one leader, got coalesced=%v", coalesced)
	}
}

// TestSubmitThenTuneRoundTrip exercises the mutating path: a submit
// stores a profile in the tenant's namespace, and a follow-up tune of
// that profile succeeds for the same tenant only.
func TestSubmitThenTuneRoundTrip(t *testing.T) {
	_, srv := newTestGateway(t, Options{})

	status, raw, _ := doReq(t, http.MethodPost, srv.URL+"/g/submit", "acme",
		SubmitRequest{Job: "wordcount", Dataset: "randomtext-1g"})
	if status != http.StatusOK {
		t.Fatalf("submit: status %d: %s", status, raw)
	}
	var sub SubmitResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}
	if !sub.ProfileStored || sub.StoredProfileID == "" {
		t.Fatalf("first submit should store a profile: %+v", sub)
	}

	status, raw, _ = doReq(t, http.MethodPost, srv.URL+"/g/tune", "acme",
		TuneRequest{JobID: sub.StoredProfileID, Budget: 6})
	if status != http.StatusOK {
		t.Fatalf("tune of submitted profile: status %d: %s", status, raw)
	}
	status, _, _ = doReq(t, http.MethodPost, srv.URL+"/g/tune", "globex",
		TuneRequest{JobID: sub.StoredProfileID, Budget: 6})
	if status != http.StatusNotFound {
		t.Fatalf("cross-tenant tune: status %d, want 404", status)
	}

	// Unknown workload names map onto the envelope's not_found.
	status, raw, _ = doReq(t, http.MethodPost, srv.URL+"/g/submit", "acme",
		SubmitRequest{Job: "no-such-job", Dataset: "randomtext-1g"})
	if status != http.StatusNotFound {
		t.Fatalf("bogus submit: status %d, want 404: %s", status, raw)
	}
	if code := envelopeCode(t, raw); code != httperr.CodeNotFound {
		t.Errorf("envelope code = %q, want %q", code, httperr.CodeNotFound)
	}
}

func TestTenantRequired(t *testing.T) {
	_, srv := newTestGateway(t, Options{})
	status, raw, _ := doReq(t, http.MethodGet, srv.URL+"/g/profiles", "", nil)
	if status != http.StatusBadRequest {
		t.Fatalf("tenantless request: status %d, want 400", status)
	}
	if code := envelopeCode(t, raw); code != httperr.CodeBadRequest {
		t.Errorf("envelope code = %q, want %q", code, httperr.CodeBadRequest)
	}
}

func TestTuneDeadlineEnvelope(t *testing.T) {
	gate := &gateKV{kv: hstore.Connect(hstore.NewServer())}
	eng := engine.New(cluster.Default16(), 7)
	_, srv := newTestGateway(t, Options{KV: gate, Engine: eng})
	prof := seedProfile(t, gate, "acme", eng)

	prime(t, srv, "acme")
	gate.open()
	defer gate.release()
	status, raw, _ := doReq(t, http.MethodPost, srv.URL+"/g/tune", "acme",
		TuneRequest{JobID: prof.JobID, Budget: 6, DeadlineMs: 30})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("deadline tune: status %d, want 504: %s", status, raw)
	}
	if code := envelopeCode(t, raw); code != httperr.CodeDeadline {
		t.Errorf("envelope code = %q, want %q", code, httperr.CodeDeadline)
	}
}

// /g/tune's request validation: wrong method, missing job_id and an
// unknown job each answer with the shared error envelope, and a
// negative deadline is simply "no deadline".
func TestTuneRequestErrors(t *testing.T) {
	kv := hstore.Connect(hstore.NewServer())
	eng := engine.New(cluster.Default16(), 7)
	_, srv := newTestGateway(t, Options{KV: kv, Engine: eng})
	prof := seedProfile(t, kv, "acme", eng)

	for _, tc := range []struct {
		name, method string
		body         any
		status       int
		code         string
	}{
		{"GET", http.MethodGet, nil, http.StatusMethodNotAllowed, httperr.CodeBadRequest},
		{"empty job_id", http.MethodPost, TuneRequest{}, http.StatusBadRequest, httperr.CodeBadRequest},
		{"unknown job", http.MethodPost, TuneRequest{JobID: "nope"}, http.StatusNotFound, httperr.CodeNotFound},
		{"negative deadline", http.MethodPost, TuneRequest{JobID: prof.JobID, Budget: 6, DeadlineMs: -1}, http.StatusOK, ""},
	} {
		status, raw, _ := doReq(t, tc.method, srv.URL+"/g/tune", "acme", tc.body)
		if status != tc.status {
			t.Errorf("%s: status %d, want %d: %s", tc.name, status, tc.status, raw)
			continue
		}
		if tc.code != "" && envelopeCode(t, raw) != tc.code {
			t.Errorf("%s: body %s, want envelope code %q", tc.name, raw, tc.code)
		}
	}
}

func TestValidateTenant(t *testing.T) {
	for _, ok := range []string{"a", "acme", "team-1", "a.b_c", "0"} {
		if err := core.ValidateTenant(ok); err != nil {
			t.Errorf("ValidateTenant(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []string{"", "A", "a b", "a/b", "a!b", "a\"b", "ü", strings.Repeat("q", 65)} {
		if err := core.ValidateTenant(bad); err == nil {
			t.Errorf("ValidateTenant(%q) = nil, want error", bad)
		}
	}
}

// Inflight returns the number of distinct keys currently being
// evaluated.
func (g *Group[V]) Inflight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.flights)
}

func TestGroupSequentialCallsDoNotCoalesce(t *testing.T) {
	g := NewGroup[int]()
	var calls atomic.Int64
	fn := func(context.Context) (int, error) {
		return int(calls.Add(1)), nil
	}
	for i := 1; i <= 3; i++ {
		v, err, shared := g.Do(context.Background(), "k", fn)
		if err != nil || shared || v != i {
			t.Fatalf("call %d: v=%d err=%v shared=%v", i, v, err, shared)
		}
	}
	if g.Inflight() != 0 {
		t.Errorf("Inflight = %d after completion, want 0", g.Inflight())
	}
}

// TestGroupLastWaiterAbandonCancelsFlight: when every caller has given
// up, nobody is listening — the flight's context is canceled so the
// evaluation stops burning CPU.
func TestGroupLastWaiterAbandonCancelsFlight(t *testing.T) {
	g := NewGroup[int]()
	flightCanceled := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err, _ := g.Do(ctx, "k", func(fctx context.Context) (int, error) {
			<-fctx.Done()
			close(flightCanceled)
			return 0, fctx.Err()
		})
		done <- err
	}()
	waitFor(t, "flight to start", func() bool { return g.Inflight() == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoning caller got %v, want context.Canceled", err)
	}
	select {
	case <-flightCanceled:
	case <-time.After(5 * time.Second):
		t.Fatal("flight context was not canceled after the last waiter left")
	}
}

// TestCoalescingCountersAddUp: on every coalescing endpoint, K
// identical requests held on one flight count one leader, and leaders
// plus hits count every request — so gateway_coalesce_hits_total over
// hits + leaders is a ratio of like with like.
func TestCoalescingCountersAddUp(t *testing.T) {
	const K = 4
	for _, ep := range []string{"tune", "whatif", "match"} {
		t.Run(ep, func(t *testing.T) {
			gate := &gateKV{kv: hstore.Connect(hstore.NewServer())}
			eng := engine.New(cluster.Default16(), 7)
			g, srv := newTestGateway(t, Options{KV: gate, Engine: eng})
			prof := seedProfile(t, gate, "acme", eng)
			spec, err := workloads.JobByName("wordcount")
			if err != nil {
				t.Fatal(err)
			}
			body := map[string]any{
				"tune":   map[string]any{"job_id": prof.JobID, "budget": 6},
				"whatif": map[string]any{"job_id": prof.JobID, "config": core.DefaultConfig(spec)},
				"match":  map[string]any{"job": "wordcount", "dataset": "randomtext-1g"},
			}[ep]
			prime(t, srv, "acme")
			before := g.Obs().Snapshot().Counters
			gate.open()
			var wg sync.WaitGroup
			statuses := make([]int, K)
			for i := range statuses {
				wg.Add(1)
				go func() {
					defer wg.Done()
					statuses[i], _, _ = doReq(t, http.MethodPost, srv.URL+"/g/"+ep, "acme", body)
				}()
			}
			waitFor(t, "all requests on one flight", func() bool { return flightWaiters(g) == K })
			gate.release()
			wg.Wait()
			for i, s := range statuses {
				if s != http.StatusOK {
					t.Fatalf("request %d: status %d", i, s)
				}
			}
			after := g.Obs().Snapshot().Counters
			leaders := after["gateway_coalesce_leaders_total"] - before["gateway_coalesce_leaders_total"]
			hits := after["gateway_coalesce_hits_total"] - before["gateway_coalesce_hits_total"]
			if leaders != 1 || leaders+hits != K {
				t.Errorf("leaders %d, hits %d after %d requests on one flight; want 1 and %d", leaders, hits, K, K-1)
			}
		})
	}
}

// TestWhatIfAnswersForEngineCluster: a gateway over an engine for a
// cluster other than the default predicts on that cluster, as its tunes
// do, not on the paper's testbed.
func TestWhatIfAnswersForEngineCluster(t *testing.T) {
	cl := cluster.Default16()
	cl.Name, cl.Workers = "ec2-c1medium-5", 4
	kv := hstore.Connect(hstore.NewServer())
	eng := engine.New(cl, 7)
	_, srv := newTestGateway(t, Options{KV: kv, Engine: eng})
	seeded := seedProfile(t, kv, "acme", eng)
	st, err := core.NewTenantStore(context.Background(), kv, "acme")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := st.LoadProfile(context.Background(), seeded.JobID)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := workloads.JobByName("wordcount")
	if err != nil {
		t.Fatal(err)
	}
	cfg := whatif.Quantize(core.DefaultConfig(spec))
	want, err := whatif.PredictRuntime(prof, prof.InputBytes, cl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if other, _ := whatif.PredictRuntime(prof, prof.InputBytes, cluster.Default16(), cfg); other == want {
		t.Fatalf("both clusters predict %v ms; the test cannot tell them apart", want)
	}
	status, raw, _ := doReq(t, http.MethodPost, srv.URL+"/g/whatif", "acme", WhatIfRequest{JobID: prof.JobID, Config: cfg})
	if status != http.StatusOK {
		t.Fatalf("whatif: status %d: %s", status, raw)
	}
	var got WhatIfResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.PredictedMs != want {
		t.Errorf("whatif predicted %v ms, want %v ms (the engine's %d-worker cluster)", got.PredictedMs, want, cl.Workers)
	}
}
