package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"pstorm/internal/cluster"
	"pstorm/internal/core"
	"pstorm/internal/dstore"
	"pstorm/internal/engine"
	"pstorm/internal/hstore"
	"pstorm/internal/obs"
	"pstorm/internal/workloads"
)

// store-mixed: the profile store as daemons and gateways use it in
// production — through dstore.Client over the /d/* HTTP wire, with
// synchronous replication. One master and three region servers sit on
// httptest servers joined by address (the pstormd shape), replication 2.
// Two closed-loop clients, each owning one tenant namespace of
// PutProfile-shaped rows, run a fixed mix of point reads, 7-row profile
// writes, batched reads and prefix scans, and check every answer
// against a model of what they last wrote.

const (
	storeClients  = 2
	storeTable    = core.TableName
	storeProfiles = 7200 // preloaded, over both clients: 50 400 rows
	// storeSetsPerTemplate is how many perturbed row contents a client
	// holds per template profile. An id keeps its template for life — a
	// put replaces cells, it does not remove the columns another job's
	// rows would leave behind — and every overwrite moves it to another
	// of the template's row sets, so a write always changes the bytes.
	storeSetsPerTemplate = 128
	// storeFlushBytes is the region servers' memstore flush threshold.
	// The default 4 MiB would flush each region about once in a window;
	// 256 KiB makes the measured writes force several flushes and
	// size-tiered compactions per region, which is where write stalls
	// come from. Fixed and stated, like the WAL policy.
	storeFlushBytes = 256 << 10
	storeZipf       = 1.2
	storeMultiGet   = 20
	storeScanLimit  = 200
	// storeMix is one cycle of 20 calls: 12 Get, 5 BatchPut, 2 MultiGet,
	// 1 Scan — 60/25/10/5 % by call, in a fixed interleaving.
	storeMix = "GGBGGMGBGGSGBGGMGBGB"
)

// storeRowSet is the seven rows of one profile, keyed for id 0; rekey
// moves them to another id.
type storeRowSet []hstore.Row

type storePrep struct {
	sets      [storeClients][]storeRowSet
	templates int
}

func storeTenant(client int) string { return fmt.Sprintf("c%d", client) }

func storeID(n int) string { return fmt.Sprintf("p%06d", n) }

// rekey returns row r of a row set under profile id n: the key keeps
// its "<feature type>/<tenant>!" prefix and takes the new id.
func rekey(r hstore.Row, n int) hstore.Row {
	return hstore.Row{Key: r.Key[:strings.IndexByte(r.Key, '!')+1] + storeID(n), Columns: r.Columns}
}

var storeMixed = workload{
	spec: workloadSpecs[2],
	prepare: func(c *runConfig) (any, error) {
		// Row contents come from real profiles: the eight PigMix queries
		// (cheap to run) perturbed per row set and pushed through
		// core.Store.PutProfile into a capturing KV.
		ctx := context.Background()
		eng := engine.New(cluster.Default16(), c.seed)
		var templates []bankEntry
		for _, spec := range workloads.PigMix() {
			ds, err := workloads.DatasetByName("pigmix-1g")
			if err != nil {
				return nil, err
			}
			run, err := eng.Run(spec, ds, core.DefaultConfig(spec), engine.RunOptions{Profiling: true})
			if err != nil {
				return nil, err
			}
			templates = append(templates, bankEntry{spec: spec, ds: ds, profile: run.Profile})
		}
		p := &storePrep{}
		rng := rand.New(rand.NewSource(c.seed))
		// Row set s comes from template s % len(templates).
		p.templates = len(templates)
		sets := p.templates * max(2, c.scaled(storeSetsPerTemplate))
		for cl := 0; cl < storeClients; cl++ {
			for s := 0; s < sets; s++ {
				prof := perturb(templates[s%len(templates)].profile, rng, storeID(0), 0.05+0.25*rng.Float64(), nil)
				rows, err := profileRows(ctx, prof, storeTenant(cl))
				if err != nil {
					return nil, err
				}
				p.sets[cl] = append(p.sets[cl], rows)
			}
		}
		return p, nil
	},
	setup: func(c *runConfig, prep any, tr *tracer) (env, error) {
		e := &storeEnv{c: c, prep: prep.(*storePrep), tr: tr}
		if err := e.start(); err != nil {
			e.close()
			return nil, err
		}
		return e, nil
	},
}

type storeEnv struct {
	c    *runConfig
	prep *storePrep
	tr   *tracer

	master  *dstore.Master
	servers []*dstore.RegionServer
	https   []*httptest.Server
	clients [storeClients]*dstore.Client
	// cur[client][id] is the row set the client last wrote to that id.
	cur [storeClients][]int32
}

func (e *storeEnv) close() {
	for _, s := range e.https {
		s.Close()
	}
	for _, rs := range e.servers {
		rs.Stop()
	}
	if e.master != nil {
		e.master.Close()
	}
}

func (e *storeEnv) start() error {
	ctx := context.Background()
	e.master = dstore.NewMaster(dstore.NewRegistry(), dstore.MasterOptions{Replication: 2, DefaultSplits: dstore.DefaultSplits})
	ms := httptest.NewServer(dstore.MasterHandler(e.master))
	e.https = append(e.https, ms)
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("rs-%d", i)
		reg := dstore.NewRegistry()
		if e.tr != nil {
			// Replication calls this server makes belong under the write
			// handler that triggered them.
			reg.WrapConn = wrapConn(e.tr, layerRepl, handlerKey(id))
		}
		rs := dstore.NewRegionServer(id, reg)
		rs.HStore().FlushBytes = storeFlushBytes
		h := dstore.RegionServerHandler(rs)
		if e.tr != nil {
			h = regionHandler(h, e.tr, id, nil)
		}
		srv := httptest.NewServer(h)
		e.servers = append(e.servers, rs)
		e.https = append(e.https, srv)
		if err := dstore.DialMaster(ms.URL, 5*time.Second).Join(dstore.Peer{ID: id, Addr: srv.URL}); err != nil {
			return fmt.Errorf("joining %s: %w", id, err)
		}
	}
	for cl := range e.clients {
		reg := dstore.NewRegistry()
		if e.tr != nil {
			reg.WrapConn = wrapConn(e.tr, layerWire, "")
		}
		e.clients[cl] = dstore.NewClient(dstore.DialMaster(ms.URL, 5*time.Second), reg)
	}
	if err := e.clients[0].CreateTable(ctx, storeTable); err != nil {
		return err
	}
	// Preload in batches of 50 profiles, then flush to sstables.
	per := e.c.scaled(storeProfiles) / storeClients
	for cl, client := range e.clients {
		sets := e.prep.sets[cl]
		e.cur[cl] = make([]int32, per)
		var batch []hstore.Row
		for n := 0; n < per; n++ {
			s := n % len(sets)
			e.cur[cl][n] = int32(s)
			for _, r := range sets[s] {
				batch = append(batch, rekey(r, n))
			}
			if len(batch) >= 350 || n == per-1 {
				if err := client.BatchPut(ctx, storeTable, batch); err != nil {
					return fmt.Errorf("preload: %w", err)
				}
				batch = batch[:0]
			}
		}
	}
	if err := e.clients[0].Flush(storeTable); err != nil {
		return err
	}
	// Warm-up: every client reads one row of every feature type, which
	// loads its META and opens its connections.
	for cl, client := range e.clients {
		for _, r := range e.prep.sets[cl][0] {
			if _, ok, err := client.Get(ctx, storeTable, rekey(r, 0).Key); err != nil || !ok {
				return fmt.Errorf("warm-up get: found=%v err=%v", ok, err)
			}
		}
	}
	return nil
}

func (e *storeEnv) snapshot() obs.Snapshot {
	snaps := []obs.Snapshot{e.master.Obs().Snapshot()}
	for _, rs := range e.servers {
		snaps = append(snaps, rs.Obs().Snapshot(), rs.HStore().Obs().Snapshot())
	}
	for _, cl := range e.clients {
		snaps = append(snaps, cl.Obs().Snapshot())
	}
	return obs.Merge(snaps...)
}

// storeMisreadCeiling bounds the one deviation from the model a run
// tolerates. At this benchmark's parent commit a point read that starts
// at a row whose cells straddle two sstable blocks is answered from the
// later block alone: cells are missing, or older versions of them come
// back (see README, findings). About 4 % of the rows point-read at the
// baseline are such misreads; the ceiling is twice that, so it
// covers the known defect and nothing else. Lower it to 0 when the seek
// is fixed.
const storeMisreadCeiling = 0.08

// readOK judges a point read of row `row` of profile n against the
// client's model. Anything but the bytes last written is a misread. A
// misread of the known kind — the right row, holding none but its own
// columns — is counted, not failed: the window's range scans and the
// full scan after it check the same rows against the model, so a write
// that was really lost still fails the run, and measure fails it when
// misreads exceed storeMisreadCeiling. Any other wrong answer fails the
// read at once.
func (e *storeEnv) readOK(r *storeClientRun, cl, n, row int, got hstore.Row) bool {
	want := rekey(e.prep.sets[cl][e.cur[cl][n]][row], n)
	r.pointReads++
	if rowsEqual(got, want) {
		return true
	}
	if got.Key != want.Key {
		return false
	}
	for c := range got.Columns {
		if _, own := want.Columns[c]; !own {
			return false
		}
	}
	r.misreads++
	return true
}

// storeClientRun is what one client measured.
type storeClientRun struct {
	m          *measured
	pointReads int
	misreads   int
	putMs      []float64
	getMs      []float64
	scanRows   int
	scanMs     float64
	end        time.Time
}

func (e *storeEnv) measure(w window) *measured {
	var snap0 obs.Snapshot
	if e.tr != nil {
		e.tr.on.Store(true)
		snap0 = e.snapshot()
	}
	mem0 := sampleProc().totalAlloc
	start := now()
	runs := make([]*storeClientRun, storeClients)
	var wg sync.WaitGroup
	for cl := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[cl] = e.runClient(cl, w)
		}()
	}
	wg.Wait()
	alloc := sampleProc().totalAlloc - mem0

	m := newMeasured()
	var putMs, getMs []float64
	var scanRows, pointReads, misreads int
	var scanMs float64
	end := start
	for _, r := range runs {
		pointReads += r.pointReads
		misreads += r.misreads
		m.attempted += r.m.attempted
		m.failed += r.m.failed
		m.failures = append(m.failures, r.m.failures...)
		putMs = append(putMs, r.putMs...)
		getMs = append(getMs, r.getMs...)
		scanRows += r.scanRows
		scanMs += r.scanMs
		if r.end.After(end) {
			end = r.end
		}
	}
	m.primary(putMs, end.Sub(start), alloc)
	gets := sortedCopy(getMs)
	m.layer["store.get_p50_ms"] = percentile(gets, 0.50)
	m.layer["store.get_p95_ms"] = percentile(gets, 0.95)
	m.layer["store.scan_rows_s"] = ratio(float64(scanRows), scanMs/1e3)
	misreadShare := ratio(float64(misreads), float64(pointReads))
	m.layer["store.misread_share"] = misreadShare
	if misreadShare > storeMisreadCeiling {
		m.fail("%d of %d rows point-read were not the bytes last written: %.1f %%, above the %.1f %% the known seek defect explains",
			misreads, pointReads, 100*misreadShare, 100*storeMisreadCeiling)
	}

	e.verify(m)
	if e.tr != nil {
		e.layerMetrics(m, snap0)
		return m
	}
	// Like every number of the workload's own, space_amp comes from the
	// untraced env.
	amp, err := e.spaceAmp()
	if err != nil {
		m.fail("checkpointing for space_amp: %v", err)
	}
	m.layer["store.space_amp"] = amp
	return m
}

func (e *storeEnv) runClient(cl int, w window) *storeClientRun {
	ctx := context.Background()
	client, sets := e.clients[cl], e.prep.sets[cl]
	r := &storeClientRun{m: newMeasured()}
	rng := rand.New(rand.NewSource(e.c.seed*storeClients + int64(cl)))
	preloaded := len(e.cur[cl])
	zipf := rand.NewZipf(rng, storeZipf, 1, uint64(preloaded-1))
	pickID := func() int { return int(zipf.Uint64()) }
	pickRow := func() int { return rng.Intn(len(sets[0])) }
	expect := func(n, row int) hstore.Row { return rekey(sets[e.cur[cl][n]][row], n) }
	writes := 0

	for i := 0; w.open(i); i++ {
		r.m.attempted++
		switch storeMix[i%len(storeMix)] {
		case 'G':
			n, row := pickID(), pickRow()
			want := expect(n, row)
			rctx, root := e.tr.root(ctx, layerDClient, "get")
			t := now()
			got, ok, err := client.Get(rctx, storeTable, want.Key)
			ms := sinceMs(t)
			root.end()
			if err != nil || !ok || !e.readOK(r, cl, n, row, got) {
				r.m.fail("get %s: found=%v err=%v, or not the bytes last written", want.Key, ok, err)
				continue
			}
			r.getMs = append(r.getMs, ms)
		case 'B':
			// Alternate between a new profile and an overwrite of a popular
			// one, which moves on to another row set of its template.
			n, s := len(e.cur[cl]), (preloaded+writes)%len(sets)
			if writes%2 == 1 {
				n = pickID()
				step := 1 + rng.Intn(len(sets)/e.prep.templates-1)
				s = (int(e.cur[cl][n]) + step*e.prep.templates) % len(sets)
			}
			writes++
			rows := make([]hstore.Row, len(sets[s]))
			for j, row := range sets[s] {
				rows[j] = rekey(row, n)
			}
			rctx, root := e.tr.root(ctx, layerDClient, "batchput")
			t := now()
			err := client.BatchPut(rctx, storeTable, rows)
			ms := sinceMs(t)
			root.end()
			if err != nil {
				r.m.fail("batchput %s: %v", storeID(n), err)
				continue
			}
			if n == len(e.cur[cl]) {
				e.cur[cl] = append(e.cur[cl], int32(s))
			} else {
				e.cur[cl][n] = int32(s)
			}
			r.putMs = append(r.putMs, ms)
		case 'M':
			row := pickRow()
			keys := make([]string, storeMultiGet)
			ids := make([]int, storeMultiGet)
			for j := range keys {
				ids[j] = pickID()
				keys[j] = expect(ids[j], row).Key
			}
			rctx, root := e.tr.root(ctx, layerDClient, "multiget")
			got, found, err := client.MultiGet(rctx, storeTable, keys)
			root.end()
			if err != nil || len(got) != len(keys) {
				r.m.fail("multiget: %d rows, err=%v", len(got), err)
				continue
			}
			for j := range keys {
				if !found[j] || !e.readOK(r, cl, ids[j], row, got[j]) {
					r.m.fail("multiget %s: found=%v, or not the bytes last written", keys[j], found[j])
					break
				}
			}
		case 'S':
			// All ids sharing their first three digits: up to 1000 rows of
			// one feature type, of which the limit returns the first 200.
			row := pickRow()
			block := pickID() / 1000
			first := rekey(sets[0][row], block*1000)
			prefix := first.Key[:len(first.Key)-3]
			rctx, root := e.tr.root(ctx, layerDClient, "scan")
			t := now()
			got, err := client.Scan(rctx, storeTable, prefix, prefix+"~", &hstore.PrefixFilter{Prefix: prefix}, storeScanLimit)
			ms := sinceMs(t)
			root.end()
			wantN := min(storeScanLimit, len(e.cur[cl])-block*1000, 1000)
			if err != nil || len(got) != wantN {
				r.m.fail("scan %s: %d rows, want %d, err=%v", prefix, len(got), wantN, err)
				continue
			}
			bad := false
			for j, g := range got {
				if !rowsEqual(g, expect(block*1000+j, row)) {
					r.m.fail("scan %s: row %d is not the bytes last written", prefix, j)
					bad = true
					break
				}
			}
			if !bad {
				r.scanRows += len(got)
				r.scanMs += ms
			}
		}
	}
	r.end = now()
	return r
}

// verify flushes and reads every row back, one feature type of one
// client at a time, and compares the table with the clients' models.
func (e *storeEnv) verify(m *measured) {
	ctx := context.Background()
	if err := e.clients[0].Flush(storeTable); err != nil {
		m.fail("final flush: %v", err)
		return
	}
	for cl, client := range e.clients {
		for row, r := range e.prep.sets[cl][0] {
			prefix := r.Key[:strings.IndexByte(r.Key, '!')+1]
			got, err := client.Scan(ctx, storeTable, prefix, prefix+"~", nil, 0)
			if err != nil || len(got) != len(e.cur[cl]) {
				m.fail("final scan %s: %d rows, model has %d, err=%v", prefix, len(got), len(e.cur[cl]), err)
				continue
			}
			for n, g := range got {
				if !rowsEqual(g, rekey(e.prep.sets[cl][e.cur[cl][n]][row], n)) {
					m.fail("final scan %s: row %d differs from the model", prefix, n)
					break
				}
			}
		}
	}
}

// spaceAmp checkpoints every region server (which compacts each region
// into one sstable) and compares the bytes on disk with the live user
// bytes times the two copies of each row.
func (e *storeEnv) spaceAmp() (float64, error) {
	var stored int64
	for i, rs := range e.servers {
		dir := filepath.Join(e.c.tmpDir, fmt.Sprintf("checkpoint-%d", i))
		if err := rs.HStore().SaveTo(dir); err != nil {
			return 0, err
		}
		files, err := filepath.Glob(filepath.Join(dir, "*.sst"))
		if err != nil {
			return 0, err
		}
		for _, f := range files {
			st, err := os.Stat(f)
			if err != nil {
				return 0, err
			}
			stored += st.Size()
		}
	}
	var user int64
	for cl := range e.cur {
		for n, s := range e.cur[cl] {
			for _, r := range e.prep.sets[cl][s] {
				user += rekey(r, n).Bytes()
			}
		}
	}
	return ratio(float64(stored), float64(user*2)), nil
}

func (e *storeEnv) layerMetrics(m *measured, snap0 obs.Snapshot) {
	spans := e.tr.finish()
	lt := attribute(spans, func(root span) bool { return root.Name == "batchput" })
	l := m.layer
	l["dstore.client_self_us"] = lt.perRequestMs(layerDClient) * 1e3
	l["dstore.client_share"] = lt.share(layerDClient)
	l["dstore.wire_share"] = lt.share(layerWire)
	l["dstore.rs_share"] = lt.share(layerRS)
	l["dstore.repl_share"] = lt.share(layerRepl)
	l["trace.primary_op_ms"] = lt.meanRequestMs()
	all := attribute(spans, nil)
	if n := all.spans[layerEngine] + all.spans[layerCBO] + all.spans[layerMatcher]; n > 0 {
		m.fail("store-mixed recorded %d engine/cbo/matcher spans; it must bypass all three", n)
	}
	storeLayerMetrics(l, obsDiff{snap0, e.snapshot()})
}
