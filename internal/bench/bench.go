// Package bench regenerates every table and figure of the paper's
// evaluation (Chapter 6 plus the motivating figures of Chapters 1 and
// 4), and the design ablations DESIGN.md calls out. Each experiment is
// a named Runner producing one or more Tables; the pstorm-bench command
// and the repository's testing.B benchmarks both drive this package.
package bench

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"

	"pstorm/internal/cbo"
	"pstorm/internal/cluster"
	"pstorm/internal/core"
	"pstorm/internal/data"
	"pstorm/internal/engine"
	"pstorm/internal/hstore"
	"pstorm/internal/mrjob"
	"pstorm/internal/obs"
	"pstorm/internal/profile"
	"pstorm/internal/workloads"
)

// Table is one reproduced table or figure, rendered as rows of text.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s — %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Runner is one reproducible experiment.
type Runner struct {
	ID   string
	Desc string
	Run  func(e *Env) ([]*Table, error)
}

// Experiments lists every experiment in presentation order.
func Experiments() []Runner {
	return []Runner{
		{"table6.1", "Benchmark of Hadoop MapReduce jobs (workload inventory)", RunTable61},
		{"table6.2", "Runtimes with the default Hadoop configuration", RunTable62},
		{"fig1.3", "Speedups of word co-occurrence under RBO / CBO(own) / CBO(bigram)", RunFig13},
		{"fig4.1", "Profiling overhead and slots: 10% profiling vs 1-task sampling", RunFig41},
		{"fig4.3", "Map-phase times of word count vs word co-occurrence", RunFig43},
		{"fig4.5", "Phase-time similarity of co-occurrence and bigram rel. freq.", RunFig45},
		{"fig4.6", "Shuffle times of co-occurrence across data set sizes", RunFig46},
		{"fig6.1", "Matching accuracy: PStorM vs P-features vs SP-features (SD, DD)", RunFig61},
		{"fig6.2", "Matching accuracy: PStorM vs GBRT settings 1-4", RunFig62},
		{"fig6.3", "Speedups under RBO and PStorM in SD / DD / NJ store states", RunFig63},
		{"ablation-filterorder", "Filter order: dynamic-first (paper) vs static-first", RunAblationFilterOrder},
		{"ablation-costfactors", "Cost factors in stage 1 vs as fallback only", RunAblationCostFactors},
		{"ablation-datamodel", "Data model: Table 5.1 vs OpenTSDB-style vs table-per-type", RunAblationDataModel},
		{"ablation-pushdown", "Filter pushdown vs client-side filtering", RunAblationPushdown},
		{"chaos", "Deterministic chaos: fault barrage vs detections, heals, zero wrong reads", RunChaos},
		{"ext-crosscluster", "Extension (§7.2.3): cross-cluster profile adaptation", RunExtCrossCluster},
		{"ext-thresholds", "Sensitivity of matching accuracy to the two thresholds", RunExtThresholds},
	}
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Runner, bool) {
	for _, r := range Experiments() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// Env is the shared experiment environment: the simulated cluster and
// engine, plus a lazily built bank of complete profiles (one per
// benchmark job × dataset) and 1-task samples, reused across
// experiments so every figure sees the same world.
type Env struct {
	Seed    int64
	Cluster *cluster.Cluster
	Engine  *engine.Engine
	CBO     cbo.Options

	mu         sync.Mutex
	bank       []BankEntry
	samples    map[string]*profile.Profile
	defRun     map[string]float64
	storeCache map[string]*matcherStoreCacheEntry
	metrics    map[string]obs.Snapshot
}

// RecordMetrics stashes an observability snapshot under a key (e.g.
// "chaos/seed=42"); pstorm-bench -json drains them into the
// experiment's BENCH JSON.
func (e *Env) RecordMetrics(key string, snap obs.Snapshot) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.metrics == nil {
		e.metrics = make(map[string]obs.Snapshot)
	}
	e.metrics[key] = snap
}

// DrainMetrics returns the snapshots recorded since the last drain and
// clears them, so sequential experiments attribute metrics to the run
// that produced them.
func (e *Env) DrainMetrics() map[string]obs.Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := e.metrics
	e.metrics = nil
	return out
}

// BankEntry is one complete profile in the bank.
type BankEntry struct {
	Spec    *mrjob.Spec
	Dataset *data.Dataset
	Profile *profile.Profile
}

// NewEnv builds an environment over the paper's 16-node cluster.
func NewEnv(seed int64) *Env {
	cl := cluster.Default16()
	return &Env{
		Seed:    seed,
		Cluster: cl,
		Engine:  engine.New(cl, seed),
		CBO:     cbo.Options{Seed: seed},
		samples: make(map[string]*profile.Profile),
		defRun:  make(map[string]float64),
	}
}

func bankKey(job, ds string) string { return job + "|" + ds }

// Bank returns complete profiles for the whole Table 6.1 benchmark,
// collecting them (profiled default-config runs) on first use.
func (e *Env) Bank() ([]BankEntry, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.bank != nil {
		return e.bank, nil
	}
	for _, entry := range workloads.Benchmark() {
		for _, dn := range entry.DatasetNames {
			ds, err := workloads.DatasetByName(dn)
			if err != nil {
				return nil, err
			}
			run, err := e.Engine.Run(entry.Spec, ds, core.DefaultConfig(entry.Spec), engine.RunOptions{Profiling: true})
			if err != nil {
				return nil, fmt.Errorf("bench: profiling %s on %s: %w", entry.Spec.Name, dn, err)
			}
			e.bank = append(e.bank, BankEntry{Spec: entry.Spec, Dataset: ds, Profile: run.Profile})
		}
	}
	return e.bank, nil
}

// Sample returns the (cached) 1-task sample profile for a submission of
// the job on the dataset, with InputBytes set to the dataset's size as
// the Fig 1.2 workflow does.
func (e *Env) Sample(spec *mrjob.Spec, ds *data.Dataset) (*profile.Profile, error) {
	key := bankKey(spec.Name, ds.Name)
	e.mu.Lock()
	if s, ok := e.samples[key]; ok {
		e.mu.Unlock()
		return s, nil
	}
	e.mu.Unlock()
	s, _, err := e.Engine.CollectSample(spec, ds, core.DefaultConfig(spec), 1)
	if err != nil {
		return nil, err
	}
	s.InputBytes = ds.NominalBytes
	e.mu.Lock()
	e.samples[key] = s
	e.mu.Unlock()
	return s, nil
}

// DefaultRuntime returns the (cached) unprofiled default-config runtime.
func (e *Env) DefaultRuntime(spec *mrjob.Spec, ds *data.Dataset) (float64, error) {
	key := bankKey(spec.Name, ds.Name)
	e.mu.Lock()
	if ms, ok := e.defRun[key]; ok {
		e.mu.Unlock()
		return ms, nil
	}
	e.mu.Unlock()
	run, err := e.Engine.Run(spec, ds, core.DefaultConfig(spec), engine.RunOptions{})
	if err != nil {
		return 0, err
	}
	e.mu.Lock()
	e.defRun[key] = run.RuntimeMs
	e.mu.Unlock()
	return run.RuntimeMs, nil
}

// StoreWith builds a fresh profile store holding every bank profile for
// which keep returns true (keep nil keeps everything).
func (e *Env) StoreWith(keep func(BankEntry) bool) (*core.Store, error) {
	bank, err := e.Bank()
	if err != nil {
		return nil, err
	}
	st, err := core.NewStore(benchCtx(), hstore.Connect(hstore.NewServer()))
	if err != nil {
		return nil, err
	}
	for _, b := range bank {
		if keep != nil && !keep(b) {
			continue
		}
		if err := st.PutProfile(benchCtx(), b.Profile); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// benchCtx roots the context for benchmark workloads: the harness is
// its own top layer — there is no inbound request whose deadline it
// could inherit.
func benchCtx() context.Context {
	return context.Background() //pstorm:allow ctxcheck the bench harness is its own top layer with no inbound request context
}

func fmtF(v float64, prec int) string { return fmt.Sprintf("%.*f", prec, v) }

func fmtMin(ms float64) string { return fmt.Sprintf("%.1f", ms/60000) }

func fmtPct(v float64) string { return fmt.Sprintf("%.0f%%", 100*v) }
