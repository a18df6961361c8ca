package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"time"

	"pstorm/internal/cluster"
	"pstorm/internal/conf"
	"pstorm/internal/core"
	"pstorm/internal/dstore"
	"pstorm/internal/engine"
	"pstorm/internal/hstore"
	"pstorm/internal/jobdsl"
	"pstorm/internal/profile"
	"pstorm/internal/whatif"
	"pstorm/internal/workloads"
)

// Probes are short fixed-count loops on one layer's public function.
// They run after the traced window of every workload, so each traced
// run reports them under the same conditions; they say what a layer
// costs on its own, where the spans say what it cost inside a request.

const probeTable = "probe"

// walValue is what the WAL probes append: the size of a feature cell.
var walValue = []byte("0.12345678901234567")

func runProbes(c *runConfig, l map[string]float64) error {
	prof, err := probeProfile(c.seed)
	if err != nil {
		return err
	}
	rows, err := profileRows(context.Background(), prof, "probe")
	if err != nil {
		return err
	}
	l["jobdsl.parse_cfg_us"], err = probeJobDSL(c)
	if err != nil {
		return err
	}
	l["whatif.predict_us"], l["whatif.evaluator_contended_ns"], err = probeWhatIf(c, prof)
	if err != nil {
		return err
	}
	if err := probeHStore(c, rows, l); err != nil {
		return err
	}
	return probeWire(c, rows, l)
}

// probeProfile is one real profile for the probes to work on: the
// cheapest Table 6.1 job, run once.
func probeProfile(seed int64) (*profile.Profile, error) {
	spec := workloads.PigMix()[0]
	ds, err := workloads.DatasetByName("pigmix-1g")
	if err != nil {
		return nil, err
	}
	run, err := engine.New(cluster.Default16(), seed).Run(spec, ds, core.DefaultConfig(spec), engine.RunOptions{Profiling: true})
	if err != nil {
		return nil, err
	}
	return run.Profile, nil
}

// probeJobDSL times parse -> CFG -> call signature, the static-feature
// path, per Table 6.1 source.
func probeJobDSL(c *runConfig) (float64, error) {
	rounds := c.scaled(5)
	entries := workloads.Benchmark()
	start := now()
	for r := 0; r < rounds; r++ {
		for _, e := range entries {
			prog, err := jobdsl.Parse(e.Spec.Source)
			if err != nil {
				return 0, err
			}
			for _, fn := range []string{"map", "reduce"} {
				_ = jobdsl.ExtractCFG(prog.Funcs[fn])
				_ = jobdsl.CallSignature(prog, fn)
			}
		}
	}
	return float64(now().Sub(start).Microseconds()) / float64(rounds*len(entries)), nil
}

// probeWhatIf times one What-If prediction, and what sharing one
// Evaluator between as many goroutines as the host has cores adds to a
// cached lookup (the lock every in-flight tune of a tenant goes through).
func probeWhatIf(c *runConfig, prof *profile.Profile) (predictUs, contendedNs float64, err error) {
	configs, lookups := c.scaled(2000), c.scaled(200_000)
	cl := cluster.Default16()
	rng := rand.New(rand.NewSource(c.seed))
	space := conf.DefaultSpace(cl.ReduceSlots())
	cfgs := make([]conf.Config, configs)
	for i := range cfgs {
		cfgs[i] = space.Sample(rng)
	}
	start := now()
	for _, cfg := range cfgs {
		if _, err := whatif.PredictRuntime(prof, prof.InputBytes, cl, cfg); err != nil {
			return 0, 0, err
		}
	}
	predictUs = float64(now().Sub(start).Microseconds()) / float64(configs)

	ev := whatif.NewEvaluator(whatif.EvaluatorOptions{})
	for _, cfg := range cfgs {
		if _, err := ev.PredictRuntime(prof, prof.InputBytes, cl, cfg); err != nil {
			return 0, 0, err
		}
	}
	perLookup := func(goroutines int) float64 {
		var wg sync.WaitGroup
		start := now()
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < lookups; i++ {
					ev.Cached(prof, prof.InputBytes, cl, cfgs[(i+g)%configs])
				}
			}()
		}
		wg.Wait()
		return float64(now().Sub(start).Nanoseconds()) / float64(lookups)
	}
	alone := perLookup(1)
	return predictUs, perLookup(runtime.NumCPU()) - alone, nil
}

// probeHStore times the storage engine's write paths and a full scan of
// a flushed table, on servers of its own.
func probeHStore(c *runConfig, rows []hstore.Row, l map[string]float64) error {
	ctx := context.Background()
	keyed := func(i int) hstore.Row {
		r := rows[i%len(rows)]
		return hstore.Row{Key: fmt.Sprintf("%s#%06d", r.Key, i), Columns: r.Columns}
	}

	memPuts := c.scaled(20_000)
	mem := hstore.Connect(hstore.NewServer())
	if err := mem.CreateTable(ctx, probeTable); err != nil {
		return err
	}
	start := now()
	for i := 0; i < memPuts; i++ {
		if err := mem.PutRow(ctx, probeTable, keyed(i)); err != nil {
			return err
		}
	}
	l["hstore.memstore_put_us"] = float64(now().Sub(start).Microseconds()) / float64(memPuts)

	if err := mem.Flush(probeTable); err != nil {
		return err
	}
	start = now()
	got, err := mem.Scan(ctx, probeTable, "", "", nil, 0)
	if err != nil {
		return err
	}
	if len(got) != memPuts {
		return fmt.Errorf("hstore probe: scan returned %d of %d rows", len(got), memPuts)
	}
	l["hstore.sstable_scan_rows_s"] = ratio(float64(memPuts), now().Sub(start).Seconds())

	for _, p := range []struct {
		metric string
		sync   bool
		puts   int
	}{
		{"hstore.wal_append_us", false, c.scaled(2000)},
		{"hstore.wal_fsync_append_us", true, c.scaled(100)},
	} {
		dir, err := os.MkdirTemp(c.tmpDir, "wal-")
		if err != nil {
			return err
		}
		srv, err := hstore.OpenDurableWith(dir, hstore.DurableOptions{SyncWAL: p.sync})
		if err != nil {
			return err
		}
		cl := hstore.Connect(srv)
		if err := cl.CreateTable(ctx, probeTable); err != nil {
			return err
		}
		start := now()
		for i := 0; i < p.puts; i++ {
			if err := cl.Put(ctx, probeTable, fmt.Sprintf("k%06d", i), "c", walValue); err != nil {
				return err
			}
		}
		l[p.metric] = float64(now().Sub(start).Microseconds()) / float64(p.puts)
	}
	return nil
}

// probeWire runs one call sequence — 7-row BatchPuts, then point Gets —
// against a 3-server cluster over HTTP and again in process. The
// difference per call is what the /d/* wire costs (JSON, base64, the
// loopback round trip); the handler decorator counts the body bytes,
// which for a fixed sequence repeat exactly.
func probeWire(c *runConfig, rows []hstore.Row, l map[string]float64) error {
	profiles := c.scaled(200)
	sequence := func(client *dstore.Client) (time.Duration, int64, error) {
		ctx := context.Background()
		if err := client.CreateTable(ctx, probeTable); err != nil {
			return 0, 0, err
		}
		var moved int64
		start := now()
		for i := 0; i < profiles; i++ {
			batch := make([]hstore.Row, len(rows))
			for j, r := range rows {
				batch[j] = hstore.Row{Key: fmt.Sprintf("%s#%04d", r.Key, i), Columns: r.Columns}
			}
			if err := client.BatchPut(ctx, probeTable, batch); err != nil {
				return 0, 0, err
			}
			moved += userBytes(batch)
		}
		for i := 0; i < profiles; i++ {
			for _, r := range rows {
				got, ok, err := client.Get(ctx, probeTable, fmt.Sprintf("%s#%04d", r.Key, i))
				if err != nil || !ok {
					return 0, 0, fmt.Errorf("wire probe get: found=%v err=%v", ok, err)
				}
				moved += got.Bytes()
			}
		}
		return now().Sub(start), moved, nil
	}
	calls := float64(profiles * (1 + len(rows)))

	local, err := dstore.StartLocalCluster(dstore.LocalOptions{Servers: 3, Replication: 2})
	if err != nil {
		return err
	}
	inProcess, _, err := sequence(local.Client())
	local.Close()
	if err != nil {
		return err
	}

	master := dstore.NewMaster(dstore.NewRegistry(), dstore.MasterOptions{Replication: 2, DefaultSplits: dstore.DefaultSplits})
	defer master.Close()
	ms := httptest.NewServer(dstore.MasterHandler(master))
	defer ms.Close()
	var bytes wireBytes
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("rs-%d", i)
		rs := dstore.NewRegionServer(id, dstore.NewRegistry())
		defer rs.Stop()
		srv := httptest.NewServer(regionHandler(dstore.RegionServerHandler(rs), nil, id, &bytes))
		defer srv.Close()
		if err := dstore.DialMaster(ms.URL, 5*time.Second).Join(dstore.Peer{ID: id, Addr: srv.URL}); err != nil {
			return err
		}
	}
	overHTTP, moved, err := sequence(dstore.NewClient(dstore.DialMaster(ms.URL, 5*time.Second), dstore.NewRegistry()))
	if err != nil {
		return err
	}
	l["dstore.wire_us_per_call"] = float64((overHTTP - inProcess).Microseconds()) / calls
	l["dstore.wire_bytes_per_user_byte"] = ratio(float64(bytes.in.Load()+bytes.out.Load()), float64(moved))
	return nil
}
