// Command pstorm-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	pstorm-bench [-seed N] [-run id[,id...]] [-list] [-json] [-chaos]
//
// With no -run flag every experiment runs, in the paper's order. The
// experiment IDs follow the paper (table6.1, fig6.3, ...) plus the
// ablations (ablation-pushdown, ...), the extensions (ext-*) and the
// chaos experiment. -json additionally writes each experiment's tables,
// and the observability snapshots it recorded (retry/failover counters,
// latency histograms, traced events), to BENCH_<id>.json in the current
// directory. -chaos is shorthand for -run chaos -json. How fast this
// implementation serves requests is measured by benchmark/, not here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"pstorm/internal/bench"
	"pstorm/internal/obs"
)

func main() {
	seed := flag.Int64("seed", 42, "experiment seed (fixed seed = identical tables)")
	run := flag.String("run", "", "comma-separated experiment IDs (default: all)")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	asJSON := flag.Bool("json", false, "also write each experiment's tables and recorded metrics to BENCH_<id>.json")
	chaosMode := flag.Bool("chaos", false, "shorthand for -run chaos -json")
	flag.Parse()

	if *chaosMode {
		*run, *asJSON = "chaos", true
	}

	if *list {
		for _, r := range bench.Experiments() {
			fmt.Printf("%-22s %s\n", r.ID, r.Desc)
		}
		return
	}

	var ids []string
	if *run == "" {
		for _, r := range bench.Experiments() {
			ids = append(ids, r.ID)
		}
	} else {
		ids = strings.Split(*run, ",")
	}

	env := bench.NewEnv(*seed)
	failed := false
	for _, id := range ids {
		r, ok := bench.Lookup(strings.TrimSpace(id))
		if !ok {
			fmt.Fprintf(os.Stderr, "pstorm-bench: unknown experiment %q (use -list)\n", id)
			failed = true
			continue
		}
		start := time.Now() //pstorm:allow clockcheck reporting real elapsed wall time per experiment
		tables, err := r.Run(env)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pstorm-bench: %s: %v\n", r.ID, err)
			failed = true
			continue
		}
		for _, t := range tables {
			t.Fprint(os.Stdout)
		}
		if *asJSON {
			name := "BENCH_" + r.ID + ".json"
			if err := writeJSON(name, *seed, r, tables, env.DrainMetrics()); err != nil {
				fmt.Fprintf(os.Stderr, "pstorm-bench: writing %s: %v\n", name, err)
				failed = true
			} else {
				fmt.Printf("(wrote %s)\n", name)
			}
		}
		//pstorm:allow clockcheck reporting real elapsed wall time per experiment
		fmt.Printf("(%s took %.1fs)\n\n", r.ID, time.Since(start).Seconds())
	}
	if failed {
		os.Exit(1)
	}
}

// benchJSON is the machine-readable form of one experiment's output.
type benchJSON struct {
	Experiment string                  `json:"experiment"`
	Desc       string                  `json:"desc"`
	Seed       int64                   `json:"seed"`
	Tables     []*bench.Table          `json:"tables"`
	Metrics    map[string]obs.Snapshot `json:"metrics,omitempty"`
}

func writeJSON(name string, seed int64, r bench.Runner, tables []*bench.Table, metrics map[string]obs.Snapshot) error {
	raw, err := json.MarshalIndent(benchJSON{
		Experiment: r.ID, Desc: r.Desc, Seed: seed, Tables: tables, Metrics: metrics,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(name, append(raw, '\n'), 0o644)
}
