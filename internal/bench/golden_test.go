package bench

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current code")

// TestGoldenTables pins every paper table byte for byte. Each experiment
// renders from a fresh NewEnv(42), so a golden file equals the output of
// `pstorm-bench -seed 42 -run <id>` run alone. chaos is left out because
// CI already diffs BENCH_chaos.json (its ms column is wall time), and
// fig6.2 because its GBRT training alone takes minutes.
func TestGoldenTables(t *testing.T) {
	for _, r := range Experiments() {
		if r.ID == "chaos" || r.ID == "fig6.2" {
			continue
		}
		t.Run(r.ID, func(t *testing.T) {
			if r.ID == "fig4.1" && testing.Short() {
				t.Skip("fig4.1 runs every benchmark job under two samplers; skipped in -short")
			}
			tables, err := r.Run(NewEnv(42))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			for _, tab := range tables {
				tab.Fprint(&got)
			}
			path := filepath.Join("testdata", "golden", r.ID+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s differs from %s (rerun with -update only if the change is intended):\n%s",
					r.ID, path, firstDiff(string(want), got.String()))
			}
		})
	}
}

// firstDiff names the first line at which got departs from want.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n  want %s\n  got  %s", i+1, wl, gl)
		}
	}
	return "(no line differs)"
}
