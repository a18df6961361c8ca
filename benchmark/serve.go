package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pstorm/internal/cbo"
	"pstorm/internal/cluster"
	"pstorm/internal/conf"
	"pstorm/internal/core"
	"pstorm/internal/dstore"
	"pstorm/internal/engine"
	"pstorm/internal/gateway"
	"pstorm/internal/obs"
	"pstorm/internal/profile"
	"pstorm/internal/whatif"
)

// serve-open: the operator's view. One gateway (gateway.Handler() on an
// httptest server) over a 3-server in-process dstore cluster, four
// tenants each holding the 36-profile bank. Requests arrive open loop —
// on a fixed schedule, whether or not earlier ones have finished — in
// four phases at the frozen rates of spec.go, and each is timed from
// the instant it was due. The generator sends over two connections (the
// host has two cores); when both are busy a due request waits in the
// generator, and that wait is part of its latency.
//
// The gated p95_ms is not one of those latencies. At the mid rate the
// slowest twentieth are the heavy tunes and submits plus whatever waited
// behind them for a processor or a connection, and on the reference host,
// whose speed moves by a quarter from one minute to the next, their p95
// moved by half to twice that between runs of the same binary (11–21 ms),
// at every rate, slice rule and connection count tried. The time from
// sending a request to its answer in the over phase, where both
// connections are busy all the time — a closed loop of two clients, as in
// store-mixed — follows the host's speed one to one, so p95_ms is that;
// the open-loop p95 of every phase is reported ungated.

const (
	serveTenants = 4
	serveSeeds   = 4 // tune seeds 1..4: 36 jobs x 4 seeds x ~300 evaluations per tenant against a 4096-entry cache
	serveConfigs = 8 // what-if configurations per job
	serveWorkers = 2
	serveZipf    = 1.2
	// serveMix is one cycle of 20 requests: 14 tune, 2 what-if, 2 match,
	// 1 profiles, 1 submit — 70/10/10/5/5 %.
	serveMix = "TTTWTTMTTTPTTWTTMTTS"
)

// Match and submit requests name cheap jobs only: both run the sampler
// (and submit the whole job) inside the gateway, and one of the heavy
// text-mining jobs would hold a connection for a third of a second.
var (
	serveMatchPairs  = [][2]string{{"pigmix-l1", "pigmix-1g"}, {"pigmix-l2", "pigmix-1g"}, {"sort", "tera-1g"}, {"join", "tpch-1g"}}
	serveSubmitPairs = [][2]string{{"pigmix-l5", "pigmix-1g"}, {"pigmix-l6", "pigmix-1g"}, {"pigmix-l7", "pigmix-1g"}, {"pigmix-l8", "pigmix-1g"}}
)

type tuneRef struct {
	config      conf.Config
	predictedMs float64
}

type servePrep struct {
	profiles []*profile.Profile // the bank, as the store hands it back
	tune     [][]tuneRef        // [job][seed-1]
	configs  [][]conf.Config    // [job][k], quantized
	whatif   [][]float64        // [job][k] predicted ms
}

var serveOpen = workload{
	spec: workloadSpecs[3],
	prepare: func(c *runConfig) (any, error) {
		ctx := context.Background()
		bank, err := collectBank(c, c.seed, false)
		if err != nil {
			return nil, err
		}
		cl := cluster.Default16()
		p := &servePrep{}
		rng := rand.New(rand.NewSource(c.seed))
		space := conf.DefaultSpace(cl.ReduceSlots())
		for _, b := range bank {
			// The gateway tunes what LoadProfile decodes, so the reference
			// answers start from the same encode/decode round trip.
			raw, err := b.profile.Encode()
			if err != nil {
				return nil, err
			}
			prof, err := profile.Decode(raw)
			if err != nil {
				return nil, err
			}
			p.profiles = append(p.profiles, prof)
			refs := make([]tuneRef, serveSeeds)
			for s := range refs {
				rec, err := cbo.Optimize(ctx, prof, prof.InputBytes, cl, core.ProfileHasCombiner(prof), cbo.Options{Seed: int64(s + 1)})
				if err != nil {
					return nil, err
				}
				refs[s] = tuneRef{rec.Config, rec.PredictedMs}
			}
			p.tune = append(p.tune, refs)
			cfgs := make([]conf.Config, serveConfigs)
			ms := make([]float64, serveConfigs)
			for k := range cfgs {
				cfgs[k] = whatif.Quantize(space.Sample(rng))
				if ms[k], err = whatif.PredictRuntime(prof, prof.InputBytes, cl, cfgs[k]); err != nil {
					return nil, err
				}
			}
			p.configs = append(p.configs, cfgs)
			p.whatif = append(p.whatif, ms)
		}
		return p, nil
	},
	setup: func(c *runConfig, prep any, tr *tracer) (env, error) {
		e := &serveEnv{c: c, prep: prep.(*servePrep), tr: tr}
		if err := e.start(); err != nil {
			e.close()
			return nil, err
		}
		return e, nil
	},
}

type serveEnv struct {
	c    *runConfig
	prep *servePrep
	tr   *tracer

	cluster *dstore.LocalCluster
	gwObs   *obs.Registry
	srv     *httptest.Server
	hc      *http.Client
}

func serveTenant(i int) string { return fmt.Sprintf("t%d", i) }

func (e *serveEnv) close() {
	if e.hc != nil {
		e.hc.CloseIdleConnections()
	}
	if e.srv != nil {
		e.srv.Close()
	}
	if e.cluster != nil {
		e.cluster.Close()
	}
}

func (e *serveEnv) start() error {
	ctx := context.Background()
	opts := dstore.LocalOptions{Servers: 3, Replication: 2}
	if e.tr != nil {
		opts.WrapConn = wrapConn(e.tr, layerRS, writeKey)
	}
	var err error
	if e.cluster, err = dstore.StartLocalCluster(opts); err != nil {
		return err
	}
	client := e.cluster.Client()
	for t := 0; t < serveTenants; t++ {
		st, err := core.NewTenantStore(ctx, client, serveTenant(t))
		if err != nil {
			return err
		}
		for _, p := range e.prep.profiles {
			if err := st.PutProfile(ctx, p); err != nil {
				return err
			}
		}
	}
	var kv core.KV = client
	if e.tr != nil {
		kv = &traceKV{kv: client, tr: e.tr, layer: layerDClient}
	}
	e.gwObs = obs.NewRegistry()
	gw, err := gateway.New(gateway.Options{
		KV:     kv,
		Engine: engine.New(cluster.Default16(), e.c.seed),
		Seed:   e.c.seed,
		Obs:    e.gwObs,
	})
	if err != nil {
		return err
	}
	e.srv = httptest.NewServer(gatewayHandler(gw.Handler(), e.tr))
	e.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveWorkers}}
	// Warm-up: every tenant answers each read endpoint once, which builds
	// its serving state in the gateway and opens the connections.
	for t := 0; t < serveTenants; t++ {
		for _, kind := range "TWMP" {
			req := e.request(byte(kind), t, 0, 0)
			if out := e.send(ctx, req); out.err != "" {
				return fmt.Errorf("warm-up %c for %s: %s", kind, req.tenant, out.err)
			}
		}
	}
	return nil
}

// serveRequest is one generated request and the answer it must get.
type serveRequest struct {
	kind   byte
	tenant string
	method string
	path   string
	body   any
	check  func(raw []byte) string // "" when the answer is right
}

func jobDataset(pair [2]string) map[string]any {
	return map[string]any{"job": pair[0], "dataset": pair[1]}
}

// request builds the request of the given kind. job picks the profile
// (tune, what-if) and variant the seed, configuration or job pair.
func (e *serveEnv) request(kind byte, tenant, job, variant int) serveRequest {
	r := serveRequest{kind: kind, tenant: serveTenant(tenant), method: http.MethodPost}
	p := e.prep
	switch kind {
	case 'T':
		seed := variant % serveSeeds
		want := p.tune[job][seed]
		r.path = "/g/tune"
		r.body = gateway.TuneRequest{JobID: p.profiles[job].JobID, Seed: int64(seed + 1)}
		r.check = func(raw []byte) string {
			var got gateway.TuneResponse
			if err := json.Unmarshal(raw, &got); err != nil {
				return err.Error()
			}
			if got.Config != want.config || got.PredictedMs != want.predictedMs {
				return fmt.Sprintf("tune %s seed %d: got %v (%.3f ms), reference %v (%.3f ms)",
					p.profiles[job].JobID, seed+1, got.Config, got.PredictedMs, want.config, want.predictedMs)
			}
			return ""
		}
	case 'W':
		k := variant % serveConfigs
		want := p.whatif[job][k]
		r.path = "/g/whatif"
		r.body = gateway.WhatIfRequest{JobID: p.profiles[job].JobID, Config: p.configs[job][k]}
		r.check = func(raw []byte) string {
			var got gateway.WhatIfResponse
			if err := json.Unmarshal(raw, &got); err != nil {
				return err.Error()
			}
			if got.PredictedMs != want {
				return fmt.Sprintf("whatif %s: got %.3f ms, reference %.3f ms", p.profiles[job].JobID, got.PredictedMs, want)
			}
			return ""
		}
	case 'M':
		pair := serveMatchPairs[variant%len(serveMatchPairs)]
		r.path = "/g/match"
		r.body = jobDataset(pair)
		r.check = func(raw []byte) string {
			var got gateway.MatchResponse
			if err := json.Unmarshal(raw, &got); err != nil {
				return err.Error()
			}
			if !got.Matched {
				return fmt.Sprintf("match %v: matched=false although the tenant stores that job's profile", pair)
			}
			return ""
		}
	case 'P':
		r.method, r.path = http.MethodGet, "/g/profiles"
		r.check = func(raw []byte) string {
			var got gateway.ProfilesResponse
			if err := json.Unmarshal(raw, &got); err != nil {
				return err.Error()
			}
			if len(got.JobIDs) < len(p.profiles) {
				return fmt.Sprintf("profiles: %d ids, the tenant was seeded with %d", len(got.JobIDs), len(p.profiles))
			}
			return ""
		}
	case 'S':
		pair := serveSubmitPairs[variant%len(serveSubmitPairs)]
		r.path = "/g/submit"
		r.body = jobDataset(pair)
		r.check = func(raw []byte) string {
			var got gateway.SubmitResponse
			if err := json.Unmarshal(raw, &got); err != nil {
				return err.Error()
			}
			if !got.Tuned && !got.ProfileStored {
				return fmt.Sprintf("submit %v: neither tuned nor stored", pair)
			}
			return ""
		}
	}
	return r
}

// serveOutcome is how one request ended.
type serveOutcome struct {
	refused bool   // 429, 503 or 504
	err     string // anything else that is not a right answer
}

func (e *serveEnv) send(ctx context.Context, r serveRequest) serveOutcome {
	ctx, root := e.tr.root(ctx, layerClient, string(r.kind))
	defer root.end()
	var body io.Reader
	if r.body != nil {
		raw, err := json.Marshal(r.body)
		if err != nil {
			return serveOutcome{err: err.Error()}
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, r.method, e.srv.URL+r.path, body)
	if err != nil {
		return serveOutcome{err: err.Error()}
	}
	req.Header.Set(gateway.TenantHeader, r.tenant)
	if id := root.id(); id != 0 {
		req.Header.Set(benchSpanHeader, strconv.Itoa(int(id)))
	}
	resp, err := e.hc.Do(req)
	if err != nil {
		return serveOutcome{err: err.Error()}
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch {
	case err != nil:
		return serveOutcome{err: err.Error()}
	case resp.StatusCode == http.StatusTooManyRequests, resp.StatusCode == http.StatusServiceUnavailable, resp.StatusCode == http.StatusGatewayTimeout:
		return serveOutcome{refused: true, err: fmt.Sprintf("%s refused with %d", r.path, resp.StatusCode)}
	case resp.StatusCode != http.StatusOK:
		return serveOutcome{err: fmt.Sprintf("%s: status %d: %s", r.path, resp.StatusCode, bytes.TrimSpace(raw))}
	}
	return serveOutcome{err: r.check(raw)}
}

// phaseRun is what one phase measured.
type phaseRun struct {
	phase   servePhase
	sent    int
	ok      int
	refused int
	latMs   []float64 // completion minus due time, right answers only
	svcMs   []float64 // completion minus send time, right answers only
	lateMs  []float64 // send minus due time, in schedule order
	elapsed time.Duration
	fails   []string
}

// backlogGrew says whether the generator was falling behind at the end
// of the phase: the last tenth of its requests left, on average, more
// than half the latency limit after they were due.
func (p *phaseRun) backlogGrew() bool {
	tail := p.lateMs[len(p.lateMs)-max(1, len(p.lateMs)/10):]
	return mean(tail) > serveLimitMs/2
}

// serveSlice is the least number of requests a latency percentile is
// taken over; a phase reports the median of its slices' percentiles.
const serveSlice = 250

func (p *phaseRun) p95() float64 { return slicedPercentile(p.latMs, 0.95, serveSlice) }

func (p *phaseRun) meetsLimit() bool {
	return p.sent > 0 && p.ok == p.sent && p.p95() <= serveLimitMs && !p.backlogGrew()
}

// requestStream hands out the fixed request sequence; phases continue
// it where the last one stopped.
type requestStream struct {
	e       *serveEnv
	i       int
	jobs    *smoothRR
	perJob  []int
	perKind map[byte]int
}

func (s *requestStream) next() serveRequest {
	kind := serveMix[s.i%len(serveMix)]
	tenant := s.i % serveTenants
	s.i++
	job, variant := 0, s.perKind[kind]
	s.perKind[kind]++
	if kind == 'T' || kind == 'W' {
		job = s.jobs.next()
		variant = s.perJob[job]
		s.perJob[job]++
	}
	return s.e.request(kind, tenant, job, variant)
}

func (e *serveEnv) runPhase(ctx context.Context, ph servePhase, n int, stream *requestStream) *phaseRun {
	reqs := make([]serveRequest, n)
	for i := range reqs {
		reqs[i] = stream.next()
	}
	run := &phaseRun{phase: ph, sent: n, lateMs: make([]float64, n)}
	lat := make([]float64, n)
	outs := make([]serveOutcome, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := now()
	for w := 0; w < serveWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				due := dueAt(start, i, ph.rate)
				if wait := due.Sub(now()); wait > 0 {
					time.Sleep(wait)
				}
				run.lateMs[i] = sinceMs(due)
				outs[i] = e.send(ctx, reqs[i])
				lat[i] = sinceMs(due)
			}
		}()
	}
	wg.Wait()
	run.elapsed = now().Sub(start)
	for i, out := range outs {
		switch {
		case out.err == "":
			run.ok++
			run.latMs = append(run.latMs, lat[i])
			run.svcMs = append(run.svcMs, lat[i]-run.lateMs[i])
		default:
			run.refused += btoi(out.refused)
			if len(run.fails) < 4 {
				run.fails = append(run.fails, out.err)
			}
		}
	}
	return run
}

func (e *serveEnv) measure(w window) *measured {
	ctx := context.Background()
	m := newMeasured()
	var snap0, gw0 obs.Snapshot
	if e.tr != nil {
		e.tr.on.Store(true)
		snap0, gw0 = e.cluster.Snapshot(), e.gwObs.Snapshot()
	}
	stream := &requestStream{
		e:       e,
		jobs:    newSmoothRR(zipfWeights(len(e.prep.profiles), serveZipf)),
		perJob:  make([]int, len(e.prep.profiles)),
		perKind: map[byte]int{},
	}
	total := w.deadline.Sub(now())
	mem0 := sampleProc().totalAlloc
	runs := map[string]*phaseRun{}
	okTotal, refused := 0, 0
	maxOK := 0.0
	for _, ph := range servePhases {
		length := time.Duration(float64(total) * ph.share)
		n := scheduledCount(length, ph.rate)
		if w.maxOps > 0 {
			n = w.maxOps
		}
		run := e.runPhase(ctx, ph, n, stream)
		runs[ph.name] = run
		m.attempted += run.sent
		m.failed += run.sent - run.ok
		m.failures = append(m.failures, run.fails...)
		okTotal += run.ok
		refused += run.refused
		if run.meetsLimit() {
			maxOK = max(maxOK, ph.rate)
		}
		m.layer["serve."+ph.name+"_p95_ms"] = run.p95()
	}
	alloc := sampleProc().totalAlloc - mem0

	mid, over := runs["mid"], runs["over"]
	m.samples = len(mid.latMs)
	m.e2e["p50_ms"] = slicedPercentile(mid.latMs, 0.50, serveSlice)
	m.e2e["p95_ms"] = slicedPercentile(over.svcMs, 0.95, serveSlice)
	m.e2e["ops_s"] = ratio(float64(over.ok), over.elapsed.Seconds())
	m.e2e["alloc_kb_per_op"] = ratio(float64(alloc)/1024, float64(okTotal))
	m.layer["serve.max_ok_rps"] = maxOK
	m.layer["serve.refused_share"] = ratio(float64(refused), float64(m.attempted))
	m.layer["gateway.generator_late_ms"] = mean(mid.lateMs)
	m.layer["gateway.generator_late_over_ms"] = mean(over.lateMs)

	if e.tr != nil {
		e.layerMetrics(m, snap0, gw0)
	}
	return m
}

func (e *serveEnv) layerMetrics(m *measured, snap0, gw0 obs.Snapshot) {
	spans := e.tr.finish()
	lt := attribute(spans, nil)
	l := m.layer
	for _, ep := range []string{"tune", "whatif", "match", "submit", "profiles"} {
		l["gateway.handler_"+ep+"_ms"] = meanSpanMs(spans, layerGateway, "handle_"+ep)
	}
	l["gateway.http_overhead_ms"] = lt.perRequestMs(layerClient)

	// The optimizer runs inside the handler with no seam around it; the
	// gateway's own tune_latency_ms histogram says how long it took.
	gw := obsDiff{gw0, e.gwObs.Snapshot()}
	tunes, tuneMs := gw.hist("tune_latency_ms")
	l["cbo.optimize_ms"] = ratio(tuneMs, tunes)
	l["cbo.evals_per_tune"] = ratio(gw.counter("tune_evaluations_total"), tunes)
	l["cbo.share"] = ratio(tuneMs*1e6, lt.rootNs)
	gatewayNs := lt.selfNs[layerGateway] - tuneMs*1e6
	l["gateway.self_ms"] = ratio(gatewayNs/1e6, float64(lt.requests))
	l["gateway.share"] = ratio(gatewayNs, lt.rootNs)
	hits, misses := gw.counter("tune_cache_hits_total"), gw.counter("tune_cache_misses_total")
	l["whatif.cache_hit_ratio"] = ratio(hits, hits+misses)
	coalesced, leaders := gw.counter("gateway_coalesce_hits_total"), gw.counter("gateway_coalesce_leaders_total")
	l["gateway.coalesce_hit_ratio"] = ratio(coalesced, coalesced+leaders)
	l["gateway.shed_share"] = ratio(gw.counter("gateway_shed_total"), gw.counter("gateway_requests_total"))

	l["dstore.client_self_us"] = lt.perRequestMs(layerDClient) * 1e3
	l["dstore.client_share"] = lt.share(layerDClient)
	l["dstore.rs_share"] = lt.share(layerRS)
	l["dstore.repl_share"] = lt.share(layerRepl)
	l["trace.primary_op_ms"] = lt.meanRequestMs()
	storeLayerMetrics(l, obsDiff{snap0, e.cluster.Snapshot()})
}
