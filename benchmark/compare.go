package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// compare judges result set B against result set A, one row per
// workload and end-to-end metric, by the rule of the choosing-metrics
// guide: B's median may be worse than A's by at most the metric's
// bound, and is an improvement when better by more than it; where
// either side's own run-to-run spread is wider than the bound the pair
// cannot be judged and is unresolved, unless every run of one side
// beats every run of the other.

type verdict string

const (
	improved   verdict = "improved"
	unchanged  verdict = "unchanged"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved"
)

// judge compares two sets of runs of one metric.
func judge(a, b []float64, better string, bound float64) verdict {
	ma, mb := median(a), median(b)
	// change > 0: B is better.
	change := (mb - ma) / ma
	if better == lower {
		change = -change
	}
	if ma == 0 {
		change = 0
	}
	sa, sb := sortedCopy(a), sortedCopy(b)
	bWinsAll := sb[0] > sa[len(sa)-1]
	aWinsAll := sa[0] > sb[len(sb)-1]
	if better == lower {
		bWinsAll, aWinsAll = sb[len(sb)-1] < sa[0], sa[len(sa)-1] < sb[0]
	}
	noisy := len(a) > 1 && len(b) > 1 && (spread(a) > bound || spread(b) > bound)
	switch {
	case change > bound && (bWinsAll || !noisy):
		return improved
	case change < -bound && (aWinsAll || !noisy):
		return regressed
	case noisy:
		return unresolved
	default:
		return unchanged
	}
}

func loadBounds() (map[string]metricSpec, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("compare reads the bounds from BENCHMARK.json in the current directory: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, err
	}
	bounds := map[string]metricSpec{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = metricSpec{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: *m.Bound}
	}
	return bounds, nil
}

func loadResult(dir, workload string) (*resultFile, error) {
	raw, err := os.ReadFile(filepath.Join(dir, resultFileName(workload, false)))
	if err != nil {
		return nil, err
	}
	var rf resultFile
	return &rf, json.Unmarshal(raw, &rf)
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A/ B/")
		return 2
	}
	bounds, err := loadBounds()
	if err != nil {
		fatal(err)
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median\tA spread\tB median\tB spread\tchange\tbound\tverdict")
	bad := 0
	for _, w := range workloadSpecs {
		a, errA := loadResult(args[0], w.Name)
		b, errB := loadResult(args[1], w.Name)
		if errA != nil || errB != nil {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\t-\t-\t-\tmissing (%v %v)\n", w.Name, errA, errB)
			bad++
			continue
		}
		if a.Host != b.Host {
			fmt.Fprintf(os.Stderr, "warning: %s was measured on different hosts (%+v vs %+v)\n", w.Name, a.Host, b.Host)
		}
		for _, d := range endToEnd {
			spec := bounds[d.Name]
			va, vb := a.Summary[d.Name].Values, b.Summary[d.Name].Values
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t-\t-\t-\tmissing\n", w.Name, d.Name)
				bad++
				continue
			}
			v := judge(va, vb, spec.Better, spec.Bound)
			if v == regressed || v == unresolved {
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.5g %s\t%.1f%%\t%.5g %s\t%.1f%%\t%+.1f%%\t%.0f%%\t%s\n",
				w.Name, d.Name, median(va), spec.Unit, 100*spread(va), median(vb), spec.Unit, 100*spread(vb),
				100*(median(vb)-median(va))/median(va), 100*spec.Bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		fatal(err)
	}
	if bad > 0 {
		return 1
	}
	return 0
}
