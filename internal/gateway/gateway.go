// Package gateway is the multi-tenant serving tier in front of the
// profile store: a stateless front door that pstormd mounts (and can
// run as its own fleet, every instance sharing one dstore cluster).
//
// It adds three things the bare endpoints lack:
//
//   - request coalescing: N identical in-flight Tune/Match/WhatIf
//     requests cost one evaluation. Keys are canonical — WhatIf keys
//     pass through whatif.Quantize — and late joiners attach to the
//     running flight with their own contexts;
//   - per-tenant namespacing: a tenant id (X-Pstorm-Tenant header or
//     ?tenant= query field) is woven into every profile row key at the
//     core.Store boundary, so tenants sharing the cluster cannot read
//     or clobber each other's profiles or normalization bounds;
//   - quotas and admission control: per-tenant token buckets and
//     concurrency ceilings, a global inflight cap, and load shedding
//     tied to the store's degraded signals — when circuit breakers
//     open or store retries run out of attempts, the lowest-priority
//     tenants are shed first, with 429 + Retry-After instead of
//     unbounded queuing.
//
// A Gateway keeps no state beyond caches (per-tenant stores, the
// memoizing evaluators, token buckets): any instance can serve any
// request, so a fleet of gateways scales horizontally over one store.
package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"pstorm/internal/cluster"
	"pstorm/internal/conf"
	"pstorm/internal/core"
	"pstorm/internal/dstore"
	"pstorm/internal/engine"
	"pstorm/internal/httperr"
	"pstorm/internal/matcher"
	"pstorm/internal/obs"
	"pstorm/internal/whatif"
	"pstorm/internal/workloads"
)

// TenantHeader is the HTTP header carrying the tenant id; the ?tenant=
// query field is the wire-protocol equivalent for clients that cannot
// set headers.
const TenantHeader = "X-Pstorm-Tenant"

// Options configure a Gateway.
type Options struct {
	// KV is the shared column-store client every tenant store wraps —
	// a dstore routing client in fleet mode, any core.KV in process.
	KV core.KV
	// Engine simulates sampling and job execution (nil: a fresh engine
	// over Cluster with Seed).
	Engine *engine.Engine
	// Cluster is the execution environment (nil: the paper's 16-node
	// testbed).
	Cluster *cluster.Cluster
	// Seed drives the optimizer search and the default engine.
	Seed int64
	// Obs receives the gateway_* metrics and the tuning pipeline's
	// tune_* metrics (nil: a private registry; see Gateway.Obs).
	Obs *obs.Registry
	// Now is the admission clock (nil: wall clock). Injected so quota
	// and shed tests are deterministic.
	Now func() time.Time

	// DefaultTenant is the serving contract for tenants without an
	// explicit entry in Tenants. The zero value means: no rate limit,
	// no per-tenant ceiling, priority 0 (shed first when degraded).
	DefaultTenant TenantConfig
	// Tenants overrides the contract per tenant id.
	Tenants map[string]TenantConfig
	// MaxInflight caps concurrently admitted requests across all
	// tenants (<= 0: unlimited). Past it, requests are shed with 429
	// rather than queued.
	MaxInflight int
	// DegradedFn, when set, is an external degraded signal (e.g. "any
	// dstore client breaker open"), checked at admission alongside the
	// gateway's own store-failure observations.
	DegradedFn func() bool
}

const (
	// degradeCooldown is how long one observed store outage (a store
	// call that ran out of retry attempts) keeps the gateway in
	// degraded-shed mode.
	degradeCooldown = time.Second
	// flightDeadline bounds each coalesced evaluation's wall-clock time
	// regardless of any single caller's deadline.
	flightDeadline = 30 * time.Second
)

// tenantState is everything the gateway caches per tenant. The store
// and evaluator are caches over shared backends — dropping the whole
// struct loses no durable state, which is what keeps gateways
// stateless and fleet-safe.
type tenantState struct {
	name string
	cfg  TenantConfig
	sys  *core.System
	bkt  *bucket

	inflight *obs.Gauge // gateway_tenant_inflight{tenant=...}
	lat      map[string]*obs.Histogram
}

// Gateway is one serving-tier instance.
type Gateway struct {
	opt     Options
	o       *obs.Registry
	engine  *engine.Engine
	cluster *cluster.Cluster
	matcher *matcher.Matcher
	now     func() time.Time

	tuneFlights   *Group[*tuneOut]
	whatifFlights *Group[float64]
	matchFlights  *Group[*matchOut]

	mu           sync.Mutex
	tenants      map[string]*tenantState
	inflight     int
	degradeUntil time.Time

	cCoalesceHits    *obs.Counter
	cCoalesceLeaders *obs.Counter
	cDegradeTrips    *obs.Counter
}

// New assembles a Gateway.
func New(opt Options) (*Gateway, error) {
	if opt.KV == nil {
		return nil, fmt.Errorf("gateway: Options.KV is required")
	}
	if opt.Cluster == nil {
		opt.Cluster = cluster.Default16()
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	if opt.Engine == nil {
		opt.Engine = engine.New(opt.Cluster, opt.Seed)
	}
	if opt.Obs == nil {
		opt.Obs = obs.NewRegistry()
	}
	if opt.Now == nil {
		opt.Now = time.Now
	}
	g := &Gateway{
		opt:              opt,
		o:                opt.Obs,
		engine:           opt.Engine,
		cluster:          opt.Cluster,
		matcher:          matcher.New(),
		now:              opt.Now,
		tuneFlights:      NewGroup[*tuneOut](),
		whatifFlights:    NewGroup[float64](),
		matchFlights:     NewGroup[*matchOut](),
		tenants:          make(map[string]*tenantState),
		cCoalesceHits:    opt.Obs.Counter("gateway_coalesce_hits_total"),
		cCoalesceLeaders: opt.Obs.Counter("gateway_coalesce_leaders_total"),
		cDegradeTrips:    opt.Obs.Counter("gateway_degrade_trips_total"),
	}
	g.matcher.Obs = opt.Obs
	g.o.GaugeFunc("gateway_tenants", func() float64 {
		g.mu.Lock()
		defer g.mu.Unlock()
		return float64(len(g.tenants))
	})
	g.o.GaugeFunc("gateway_inflight", func() float64 {
		g.mu.Lock()
		defer g.mu.Unlock()
		return float64(g.inflight)
	})
	// Summed here, once, because every tenant's evaluator shares g.o.
	g.o.GaugeFunc("tune_cache_size", func() float64 {
		g.mu.Lock()
		defer g.mu.Unlock()
		n := 0
		for _, ts := range g.tenants {
			n += ts.sys.Evaluator.Len()
		}
		return float64(n)
	})
	return g, nil
}

// Obs exposes the gateway's metrics registry.
func (g *Gateway) Obs() *obs.Registry { return g.o }

// endpoints instrumented with per-tenant latency histograms.
var latencyEndpoints = []string{"tune", "whatif", "match", "submit", "profiles"}

// tenant returns (building and caching on first use) the per-tenant
// serving state. Building opens the namespaced store — an idempotent
// CreateTable against the shared cluster — outside the gateway lock so
// one slow tenant bootstrap cannot stall admission for everyone.
func (g *Gateway) tenant(ctx context.Context, name string) (*tenantState, error) {
	if err := core.ValidateTenant(name); err != nil {
		return nil, err
	}
	g.mu.Lock()
	if ts, ok := g.tenants[name]; ok {
		g.mu.Unlock()
		return ts, nil
	}
	g.mu.Unlock()

	st, err := core.NewTenantStore(ctx, g.opt.KV, name)
	if err != nil {
		return nil, err
	}
	cfg, ok := g.opt.Tenants[name]
	if !ok {
		cfg = g.opt.DefaultTenant
	}
	cfg = cfg.withDefaults()

	sys := core.NewSystem(st, g.engine)
	sys.Matcher = g.matcher
	sys.CBO.Seed = g.opt.Seed
	sys.Evaluator = whatif.NewEvaluator(whatif.EvaluatorOptions{Obs: g.o})
	sys.Obs = g.o
	sys.Now = g.now

	ts := &tenantState{
		name:     name,
		cfg:      cfg,
		sys:      sys,
		inflight: g.o.Gauge("gateway_tenant_inflight", "tenant", name),
		lat:      make(map[string]*obs.Histogram, len(latencyEndpoints)),
	}
	for _, ep := range latencyEndpoints {
		ts.lat[ep] = g.o.Histogram("gateway_request_latency_ms", nil, "endpoint", ep, "tenant", name)
	}
	if cfg.RatePerSec > 0 {
		ts.bkt = newBucket(cfg.RatePerSec, cfg.Burst, g.now())
	}

	g.mu.Lock()
	defer g.mu.Unlock()
	if cached, ok := g.tenants[name]; ok { // lost the build race: keep the first
		return cached, nil
	}
	g.tenants[name] = ts
	return ts, nil
}

// degraded reports whether the gateway should be shedding low-priority
// tenants: either its own recent store-failure observation is still
// cooling down, or the external signal (breaker state) says so.
func (g *Gateway) degraded() bool {
	g.mu.Lock()
	own := g.now().Before(g.degradeUntil)
	g.mu.Unlock()
	if own {
		return true
	}
	return g.opt.DegradedFn != nil && g.opt.DegradedFn()
}

// noteStoreError trips the gateway's own degraded signal when err is a
// store-availability failure: ErrExhausted, which the store client
// returns only once its retries have run out of attempts, so the
// store is already known to be in trouble.
func (g *Gateway) noteStoreError(err error) {
	if err == nil || !errors.Is(err, dstore.ErrExhausted) {
		return
	}
	g.mu.Lock()
	g.degradeUntil = g.now().Add(degradeCooldown)
	g.mu.Unlock()
	g.cDegradeTrips.Inc()
}

// admit runs the admission pipeline for one request. On success the
// caller owes a release(ts).
func (g *Gateway) admit(ts *tenantState) *admitError {
	// 1. Global ceiling: shed rather than queue.
	if g.opt.MaxInflight > 0 {
		g.mu.Lock()
		over := g.inflight >= g.opt.MaxInflight
		if !over {
			g.inflight++
		}
		g.mu.Unlock()
		if over {
			return &admitError{status: http.StatusTooManyRequests, code: httperr.CodeOverCapacity,
				msg: "gateway at capacity", retryAfter: time.Second}
		}
	} else {
		g.mu.Lock()
		g.inflight++
		g.mu.Unlock()
	}
	undo := func() {
		g.mu.Lock()
		g.inflight--
		g.mu.Unlock()
	}

	// 2. Degraded shed: best-effort tenants (Priority <= 0) go first.
	if ts.cfg.Priority <= 0 && g.degraded() {
		undo()
		return &admitError{status: http.StatusTooManyRequests, code: httperr.CodeShedDegraded,
			msg: "store degraded; shedding priority<=0 tenants", retryAfter: degradeCooldown}
	}

	// 3. Per-tenant rate quota.
	if ts.bkt != nil {
		if ok, retry := ts.bkt.take(g.now()); !ok {
			undo()
			return &admitError{status: http.StatusTooManyRequests, code: httperr.CodeRateLimited,
				msg: fmt.Sprintf("tenant %s over rate quota (%.3g req/s)", ts.name, ts.cfg.RatePerSec), retryAfter: retry}
		}
	}

	// 4. Per-tenant concurrency ceiling.
	if ts.cfg.MaxInflight > 0 && ts.inflight.Value() >= int64(ts.cfg.MaxInflight) {
		undo()
		return &admitError{status: http.StatusTooManyRequests, code: httperr.CodeOverCapacity,
			msg: fmt.Sprintf("tenant %s at concurrency ceiling (%d)", ts.name, ts.cfg.MaxInflight), retryAfter: time.Second}
	}
	ts.inflight.Add(1)
	return nil
}

func (g *Gateway) release(ts *tenantState) {
	ts.inflight.Add(-1)
	g.mu.Lock()
	g.inflight--
	g.mu.Unlock()
}

// writeErr maps an evaluation error onto the shared envelope.
func (g *Gateway) writeErr(w http.ResponseWriter, err error) {
	g.noteStoreError(err)
	status, code := http.StatusInternalServerError, httperr.CodeInternal
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		status, code = http.StatusGatewayTimeout, httperr.CodeDeadline
	case errors.Is(err, context.Canceled):
		status, code = http.StatusGatewayTimeout, httperr.CodeCanceled
	case errors.Is(err, core.ErrNotFound):
		status, code = http.StatusNotFound, httperr.CodeNotFound
	case errors.Is(err, dstore.ErrExhausted):
		status, code = http.StatusServiceUnavailable, httperr.CodeUnavailable
	}
	httperr.Write(w, status, code, err.Error(), g.degraded())
}

// Handler returns the gateway's HTTP surface, every endpoint under
// /g/.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	g.Mount(mux)
	return mux
}

// Mount registers the gateway endpoints on an existing mux (pstormd
// mounts them next to the wire protocol).
func (g *Gateway) Mount(mux *http.ServeMux) {
	mux.Handle("/g/tune", g.instrument("tune", http.MethodPost, g.handleTune))
	mux.Handle("/g/whatif", g.instrument("whatif", http.MethodPost, g.handleWhatIf))
	mux.Handle("/g/match", g.instrument("match", http.MethodPost, g.handleMatch))
	mux.Handle("/g/submit", g.instrument("submit", http.MethodPost, g.handleSubmit))
	mux.Handle("/g/profiles", g.instrument("profiles", http.MethodGet, g.handleProfiles))
}

// instrument wraps one endpoint with the whole serving pipeline:
// method check, tenant resolution, admission, latency recording.
func (g *Gateway) instrument(ep, method string, fn func(w http.ResponseWriter, r *http.Request, ts *tenantState)) http.Handler {
	reqs := g.o.Counter("gateway_requests_total", "endpoint", ep)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqs.Inc()
		if r.Method != method {
			httperr.Write(w, http.StatusMethodNotAllowed, httperr.CodeBadRequest, method+" only", false)
			return
		}
		name := r.Header.Get(TenantHeader)
		if name == "" {
			name = r.URL.Query().Get("tenant")
		}
		if name == "" {
			httperr.Write(w, http.StatusBadRequest, httperr.CodeBadRequest,
				"tenant required ("+TenantHeader+" header or ?tenant=)", false)
			return
		}
		ts, err := g.tenant(r.Context(), name)
		if err != nil {
			httperr.Write(w, http.StatusBadRequest, httperr.CodeBadRequest, err.Error(), false)
			return
		}
		if aerr := g.admit(ts); aerr != nil {
			g.o.Counter("gateway_shed_total", "reason", aerr.code, "tenant", ts.name).Inc()
			httperr.WriteRetryAfter(w, aerr.status, aerr.code, aerr.msg, g.degraded(), aerr.retryAfter)
			return
		}
		defer g.release(ts)
		start := g.now()
		fn(w, r, ts)
		ts.lat[ep].Observe(float64(g.now().Sub(start)) / float64(time.Millisecond))
	})
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		httperr.Write(w, http.StatusBadRequest, httperr.CodeBadRequest, err.Error(), false)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// ---- /g/tune ----

// TuneRequest is the /g/tune body.
type TuneRequest struct {
	JobID      string `json:"job_id"`
	InputBytes int64  `json:"input_bytes"`
	Budget     int    `json:"budget"`
	DeadlineMs int64  `json:"deadline_ms"`
	Seed       int64  `json:"seed"`
}

// TuneResponse is the /g/tune answer.
type TuneResponse struct {
	JobID       string      `json:"job_id"`
	Tenant      string      `json:"tenant"`
	Config      conf.Config `json:"config"`
	PredictedMs float64     `json:"predicted_ms"`
	DefaultMs   float64     `json:"default_ms"`
	Evaluations int         `json:"evaluations"`
	Coalesced   bool        `json:"coalesced"`
}

type tuneOut struct {
	resp TuneResponse
}

// tuneKey is the canonical coalescing identity of a tune request. The
// seed is the caller-visible part of the search identity; the config
// space itself is canonical via whatif.Quantize inside the evaluator.
func tuneKey(tenant string, req TuneRequest) string {
	return strings.Join([]string{"tune", tenant, req.JobID,
		strconv.FormatInt(req.InputBytes, 10),
		strconv.Itoa(req.Budget),
		strconv.FormatInt(req.Seed, 10)}, "\x00")
}

func (g *Gateway) handleTune(w http.ResponseWriter, r *http.Request, ts *tenantState) {
	var req TuneRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.JobID == "" {
		httperr.Write(w, http.StatusBadRequest, httperr.CodeBadRequest, "job_id required", false)
		return
	}
	ctx := r.Context()
	if req.DeadlineMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMs)*time.Millisecond)
		defer cancel()
	}
	out, err, shared := g.tuneFlights.Do(ctx, tuneKey(ts.name, req), func(fctx context.Context) (*tuneOut, error) {
		g.cCoalesceLeaders.Inc()
		prof, err := ts.sys.Store.LoadProfile(fctx, req.JobID)
		if err != nil {
			return nil, err
		}
		inputBytes := req.InputBytes
		if inputBytes <= 0 {
			inputBytes = prof.InputBytes
		}
		rec, err := ts.sys.Tune(fctx, prof, inputBytes, core.TuneOptions{
			Budget:   req.Budget,
			Deadline: flightDeadline,
			Seed:     req.Seed,
		})
		if err != nil {
			return nil, err
		}
		return &tuneOut{resp: TuneResponse{
			JobID: req.JobID, Tenant: ts.name, Config: rec.Config,
			PredictedMs: rec.PredictedMs, DefaultMs: rec.DefaultMs,
			Evaluations: rec.Evaluations,
		}}, nil
	})
	if shared {
		g.cCoalesceHits.Inc()
	}
	if err != nil {
		g.writeErr(w, err)
		return
	}
	resp := out.resp
	resp.Coalesced = shared
	writeJSON(w, resp)
}

// ---- /g/whatif ----

// WhatIfRequest asks for the predicted runtime of one configuration.
type WhatIfRequest struct {
	JobID      string      `json:"job_id"`
	InputBytes int64       `json:"input_bytes"`
	Config     conf.Config `json:"config"`
}

// WhatIfResponse is the /g/whatif answer.
type WhatIfResponse struct {
	JobID       string      `json:"job_id"`
	Tenant      string      `json:"tenant"`
	Config      conf.Config `json:"config"` // canonical (quantized) form
	PredictedMs float64     `json:"predicted_ms"`
	Coalesced   bool        `json:"coalesced"`
}

// whatifKey is canonical through whatif.Quantize: any two configs that
// quantize identically — i.e. ask the same question of the What-If
// model — coalesce onto one flight. Struct field order makes the JSON
// encoding deterministic.
func whatifKey(tenant string, req WhatIfRequest, q conf.Config) string {
	raw, _ := json.Marshal(q)
	return strings.Join([]string{"whatif", tenant, req.JobID,
		strconv.FormatInt(req.InputBytes, 10), string(raw)}, "\x00")
}

func (g *Gateway) handleWhatIf(w http.ResponseWriter, r *http.Request, ts *tenantState) {
	var req WhatIfRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.JobID == "" {
		httperr.Write(w, http.StatusBadRequest, httperr.CodeBadRequest, "job_id required", false)
		return
	}
	q := whatif.Quantize(req.Config)
	ms, err, shared := g.whatifFlights.Do(r.Context(), whatifKey(ts.name, req, q), func(fctx context.Context) (float64, error) {
		prof, err := ts.sys.Store.LoadProfile(fctx, req.JobID)
		if err != nil {
			return 0, err
		}
		inputBytes := req.InputBytes
		if inputBytes <= 0 {
			inputBytes = prof.InputBytes
		}
		return ts.sys.Evaluator.PredictRuntime(prof, inputBytes, g.cluster, q)
	})
	if shared {
		g.cCoalesceHits.Inc()
	}
	if err != nil {
		g.writeErr(w, err)
		return
	}
	writeJSON(w, WhatIfResponse{JobID: req.JobID, Tenant: ts.name, Config: q, PredictedMs: ms, Coalesced: shared})
}

// ---- /g/match ----

// MatchRequest probes the tenant's store with a fresh 1-task sample of
// a named workload job on a named dataset.
type MatchRequest struct {
	Job     string `json:"job"`
	Dataset string `json:"dataset"`
}

// MatchResponse is the matcher's verdict, trimmed for the wire.
type MatchResponse struct {
	Tenant      string `json:"tenant"`
	Matched     bool   `json:"matched"`
	Composite   bool   `json:"composite"`
	MapJobID    string `json:"map_job_id,omitempty"`
	ReduceJobID string `json:"reduce_job_id,omitempty"`
	Degraded    bool   `json:"degraded,omitempty"`
	Coalesced   bool   `json:"coalesced"`
}

type matchOut struct {
	resp MatchResponse
}

func (g *Gateway) handleMatch(w http.ResponseWriter, r *http.Request, ts *tenantState) {
	var req MatchRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	key := strings.Join([]string{"match", ts.name, req.Job, req.Dataset}, "\x00")
	out, err, shared := g.matchFlights.Do(r.Context(), key, func(fctx context.Context) (*matchOut, error) {
		spec, err := workloads.JobByName(req.Job)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", req.Job, core.ErrNotFound)
		}
		ds, err := workloads.DatasetByName(req.Dataset)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", req.Dataset, core.ErrNotFound)
		}
		sample, _, err := g.engine.CollectSample(spec, ds, core.DefaultConfig(spec), 1)
		if err != nil {
			return nil, err
		}
		sample.InputBytes = ds.NominalBytes
		res, err := g.matcher.Match(fctx, ts.sys.Store, sample)
		if err != nil {
			return nil, err
		}
		return &matchOut{resp: MatchResponse{
			Tenant: ts.name, Matched: res.Matched(), Composite: res.Composite,
			MapJobID: res.MapJobID, ReduceJobID: res.ReduceJobID, Degraded: res.Degraded,
		}}, nil
	})
	if shared {
		g.cCoalesceHits.Inc()
	}
	if err != nil {
		g.writeErr(w, err)
		return
	}
	resp := out.resp
	resp.Coalesced = shared
	writeJSON(w, resp)
}

// ---- /g/submit ----

// SubmitRequest runs the full PStorM workflow for a named workload job
// — sample, match, then either a tuned run or a profiled run whose
// profile lands in the tenant's namespace. Submissions mutate the
// store, so they are never coalesced.
type SubmitRequest struct {
	Job        string `json:"job"`
	Dataset    string `json:"dataset"`
	Budget     int    `json:"budget"`
	DeadlineMs int64  `json:"deadline_ms"`
}

// SubmitResponse describes what happened to the submission.
type SubmitResponse struct {
	Tenant          string  `json:"tenant"`
	JobID           string  `json:"job_id"`
	Tuned           bool    `json:"tuned"`
	RuntimeMs       float64 `json:"runtime_ms"`
	PredictedMs     float64 `json:"predicted_ms,omitempty"`
	ProfileStored   bool    `json:"profile_stored"`
	StoredProfileID string  `json:"stored_profile_id,omitempty"`
	Degraded        bool    `json:"degraded,omitempty"`
}

func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request, ts *tenantState) {
	var req SubmitRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	spec, err := workloads.JobByName(req.Job)
	if err != nil {
		g.writeErr(w, fmt.Errorf("%s: %w", req.Job, core.ErrNotFound))
		return
	}
	ds, err := workloads.DatasetByName(req.Dataset)
	if err != nil {
		g.writeErr(w, fmt.Errorf("%s: %w", req.Dataset, core.ErrNotFound))
		return
	}
	ctx := r.Context()
	if req.DeadlineMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMs)*time.Millisecond)
		defer cancel()
	}
	res, err := ts.sys.Submit(ctx, spec, ds, core.TuneOptions{Budget: req.Budget})
	if err != nil {
		g.writeErr(w, err)
		return
	}
	writeJSON(w, SubmitResponse{
		Tenant: ts.name, JobID: res.JobID, Tuned: res.Tuned, RuntimeMs: res.RuntimeMs,
		PredictedMs: res.PredictedMs, ProfileStored: res.ProfileStored,
		StoredProfileID: res.StoredProfileID, Degraded: res.Degraded,
	})
}

// ---- /g/profiles ----

// ProfilesResponse lists the tenant's stored profile IDs.
type ProfilesResponse struct {
	Tenant string   `json:"tenant"`
	JobIDs []string `json:"job_ids"`
}

func (g *Gateway) handleProfiles(w http.ResponseWriter, r *http.Request, ts *tenantState) {
	ids, err := ts.sys.Store.JobIDs(r.Context())
	if err != nil {
		g.writeErr(w, err)
		return
	}
	if ids == nil {
		ids = []string{}
	}
	writeJSON(w, ProfilesResponse{Tenant: ts.name, JobIDs: ids})
}
