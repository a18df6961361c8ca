package engine

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pstorm/internal/data"
	"pstorm/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/measure_stats.golden.json from the current code")

// measuredStats is one row of the Measure golden file.
type measuredStats struct {
	Job     string `json:"job"`
	Dataset string `json:"dataset"`
	Stats   *Stats `json:"stats"`
}

// TestMeasureStatsGolden pins the statistics Measure derives from
// executing every Table 6.1 job on each of its datasets, interpreter
// step counts included, so a change to the DSL runtime that moves one
// step shows up here before it moves a profile or a paper table.
func TestMeasureStatsGolden(t *testing.T) {
	var rows []measuredStats
	for _, e := range workloads.Benchmark() {
		for _, dn := range e.DatasetNames {
			ds, err := workloads.DatasetByName(dn)
			if err != nil {
				t.Fatal(err)
			}
			st, err := Measure(e.Spec, ds, []int{0, 1, 2, 3, 4, 7, 11}, 200)
			if err != nil {
				t.Fatalf("%s on %s: %v", e.Spec.Name, dn, err)
			}
			rows = append(rows, measuredStats{e.Spec.Name, dn, st})
		}
	}
	got, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "measure_stats.golden.json")
	if *update {
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
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	var wantRows []measuredStats
	if err := json.Unmarshal(want, &wantRows); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(wantRows) != len(rows) {
		t.Fatalf("%d (job, dataset) rows, golden has %d", len(rows), len(wantRows))
	}
	for i, w := range wantRows {
		if g := rows[i]; g.Job != w.Job || g.Dataset != w.Dataset || *g.Stats != *w.Stats {
			t.Errorf("%s on %s:\n got  %+v\n want %+v", g.Job, g.Dataset, *g.Stats, *w.Stats)
		}
	}
}

// BenchmarkMeasure executes every Table 6.1 job over 200 records of
// splits of its first dataset: five splits, the DSL work behind one
// profiled run, and one split, the 1-task sample CollectSample takes.
func BenchmarkMeasure(b *testing.B) {
	entries := workloads.Benchmark()
	datasets := make([]*data.Dataset, len(entries))
	for i, e := range entries {
		ds, err := workloads.DatasetByName(e.DatasetNames[0])
		if err != nil {
			b.Fatal(err)
		}
		datasets[i] = ds
	}
	for _, splits := range [][]int{{0, 1, 2, 3, 4}, {0}} {
		b.Run(fmt.Sprintf("splits=%d", len(splits)), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				for i, e := range entries {
					if _, err := Measure(e.Spec, datasets[i], splits, 200); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
