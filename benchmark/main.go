// Command benchmark is the repository's benchmark: four workloads that
// together cover the whole request path, the end-to-end metrics a user
// of the system would see, and — on a traced run — what each layer
// contributed. See README.md in this directory.
//
//	go run ./benchmark -seed 42                      # all four workloads, end-to-end metrics
//	go run ./benchmark -seed 42 -trace 1 -out DIR    # per-layer metrics and span files
//	go run ./benchmark -seed 42 -runs 5 -out DIR     # a result set for compare
//	go run ./benchmark compare A B                   # judge B against A
//	go run ./benchmark spec                          # print BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"text/tabwriter"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "spec":
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(benchmarkSpec()); err != nil {
				fatal(err)
			}
			return
		}
	}
	os.Exit(runMain())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func runMain() int {
	var (
		name    = flag.String("workload", "", "workload to run (default: all four)")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds = flag.Float64("seconds", defaultRunSeconds, "length of the measured window")
		trace   = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end metrics")
		runs    = flag.Int("runs", 1, "runs per workload; with -out, the result file holds their median, quartiles, min and max")
		out     = flag.String("out", "", "directory for result files and span files (default: none written)")
		ops     = flag.Int("ops", 0, "end each window after this many operations per client instead of after -seconds")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProf = flag.String("memprofile", "", "write a heap profile at exit to this file")
		mtxProf = flag.String("mutexprofile", "", "write a mutex-contention profile at exit to this file")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *runs < 1 || *seconds <= 0 {
		fatal(fmt.Errorf("need -runs >= 1 and -seconds > 0"))
	}

	selected := allWorkloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		selected = []workload{w}
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() { pprof.StopCPUProfile(); f.Close() }()
	}
	if *mtxProf != "" {
		runtime.SetMutexProfileFraction(5)
	}

	cfg := runConfig{
		seed: *seed, seconds: *seconds, maxOps: *ops, trace: *trace != 0,
		scale: 1, outDir: *out,
		tmpDir: filepath.Join(".bench_build", "tmp"),
	}
	host := stampHost()
	fmt.Printf("host: %d cores, GOMAXPROCS %d, %s %s/%s, kernel %s\n",
		host.Cores, host.GOMAXPROCS, host.GoVersion, host.GOOS, host.GOARCH, host.Kernel)

	status := 0
	var last *runResult
	for _, w := range selected {
		var results []*runResult
		for r := 0; r < *runs; r++ {
			res, err := runOnce(w, cfg)
			if err != nil {
				fatal(err)
			}
			printRun(res)
			if !res.Correct {
				status = 1
			}
			results = append(results, res)
			last = res
		}
		if *out != "" {
			if err := writeResultFile(*out, host, w.spec.Name, cfg, results); err != nil {
				fatal(err)
			}
		}
	}
	writeProfile(*memProf, "heap")
	writeProfile(*mtxProf, "mutex")
	printResultLine(last)
	return status
}

// writeProfile writes one of the runtime's named profiles, if asked to.
func writeProfile(path, name string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

// metricDefs returns the definitions of the metric set a run reports.
func metricDefs(trace bool) []metricSpec {
	if trace {
		return perLayer
	}
	return endToEnd
}

// printRun prints every metric of the run by name, with its unit.
func printRun(r *runResult) {
	kind := "end-to-end"
	if r.Trace {
		kind = "per-layer"
	}
	fmt.Printf("\n== %s  seed %d  %s  (%d primary-operation samples, %d attempted, %d failed)\n",
		r.Workload, r.Seed, kind, r.Samples, r.Attempted, r.Failed)
	tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	for _, d := range metricDefs(r.Trace) {
		if r.Trace {
			fmt.Fprintf(tw, "  %s\t%s\t%.6g\t%s\n", d.Layer, d.Name, r.Metrics[d.Name], d.Unit)
		} else {
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", d.Name, r.Metrics[d.Name], d.Unit)
		}
	}
	if !r.Trace {
		fmt.Fprintf(tw, "  error_share\t%.6g\tratio\n", ratio(float64(r.Failed), float64(r.Attempted)))
		// The workload's own ungated numbers, measured in the same window.
		for _, d := range perLayer {
			if v, ok := r.Metrics[d.Name]; ok {
				fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", d.Name, v, d.Unit)
			}
		}
	}
	if err := tw.Flush(); err != nil {
		fatal(err)
	}
	for _, f := range r.Failures {
		fmt.Println("  FAILED:", f)
	}
}

// printResultLine prints the run contract's last line: one JSON object
// with correct, attempted, failed and the metrics with their units.
func printResultLine(r *runResult) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, d := range metricDefs(r.Trace) {
		line.Metrics[d.Name] = value{r.Metrics[d.Name], d.Unit}
	}
	raw, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(raw))
}

// resultFile is what -out writes per workload: where and how it was
// measured, every run, and each metric's summary over the runs.
type resultFile struct {
	Workload string                   `json:"workload"`
	Host     hostStamp                `json:"host"`
	Seed     int64                    `json:"seed"`
	Seconds  float64                  `json:"seconds"`
	Trace    bool                     `json:"trace"`
	Runs     []*runResult             `json:"runs"`
	Summary  map[string]metricSummary `json:"summary"`
}

type metricSummary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

func summarize(unit string, vals []float64) metricSummary {
	s := sortedCopy(vals)
	q1, q3 := quartiles(s)
	return metricSummary{Unit: unit, Median: median(s), Min: s[0], Max: s[len(s)-1], Q1: q1, Q3: q3, Values: vals}
}

func resultFileName(workload string, trace bool) string {
	if trace {
		return "layers-" + workload + ".json"
	}
	return "result-" + workload + ".json"
}

func writeResultFile(dir string, host hostStamp, workload string, c runConfig, results []*runResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rf := resultFile{Workload: workload, Host: host, Seed: c.seed, Seconds: c.seconds, Trace: c.trace,
		Runs: results, Summary: map[string]metricSummary{}}
	var benchfmt strings.Builder
	for _, d := range metricDefs(c.trace) {
		vals := make([]float64, len(results))
		for i, r := range results {
			vals[i] = r.Metrics[d.Name]
			// One Go benchmark-format line per run and metric, so that
			// `benchstat old/bench.txt new/bench.txt` works unmodified.
			fmt.Fprintf(&benchfmt, "Benchmark%s/%s 1 %g %s\n", camel(workload), d.Name, vals[i], d.Unit)
		}
		rf.Summary[d.Name] = summarize(d.Unit, vals)
	}
	raw, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, resultFileName(workload, c.trace)), append(raw, '\n'), 0o644); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, "bench.txt"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(benchfmt.String()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// camel turns "submit-loop" into "SubmitLoop".
func camel(name string) string {
	var b strings.Builder
	for _, part := range strings.Split(name, "-") {
		b.WriteString(strings.ToUpper(part[:1]) + part[1:])
	}
	return b.String()
}
