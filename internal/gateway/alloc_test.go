package gateway

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pstorm/internal/cluster"
	"pstorm/internal/core"
	"pstorm/internal/engine"
	"pstorm/internal/hstore"
	"pstorm/internal/workloads"
)

// whatifAllocs is what one /g/whatif through Handler() allocates for a
// warm tenant whose evaluator already holds the answer: the request and
// recorder, tenant resolution and admission, the JSON decode, the
// coalescing key and flight, the stored profile's load and the encoded
// answer.
const whatifAllocs = 207

// TestWhatIfAllocs holds one warm /g/whatif to within 1 % of
// whatifAllocs. A change that moves the count on purpose updates the
// constant and says why.
func TestWhatIfAllocs(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("allocation golden; run without -short and -race")
	}
	kv := hstore.Connect(hstore.NewServer())
	eng := engine.New(cluster.Default16(), 7)
	g, err := New(Options{KV: kv, Engine: eng, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	prof := seedProfile(t, kv, "acme", eng)
	spec, err := workloads.JobByName("wordcount")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := json.Marshal(core.DefaultConfig(spec))
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"job_id":%q,"config":%s}`, prof.JobID, cfg)
	h := g.Handler()
	whatif := func() {
		req := httptest.NewRequest(http.MethodPost, "/g/whatif", strings.NewReader(body))
		req.Header.Set(TenantHeader, "acme")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("whatif: %d %s", rec.Code, rec.Body)
		}
	}
	whatif() // builds the tenant and fills its evaluator
	allocs := testing.AllocsPerRun(50, whatif)
	if hits := g.Obs().Snapshot().Counters["tune_cache_hits_total"]; hits < 50 {
		t.Fatalf("tune_cache_hits_total = %d after 51 identical whatifs, want every repeat a hit", hits)
	}
	t.Logf("%.1f allocations per /g/whatif", allocs)
	if math.Abs(allocs-whatifAllocs) > whatifAllocs/100 {
		t.Errorf("one /g/whatif allocated %.0f times, want %d ± 1 %%", allocs, whatifAllocs)
	}
}
