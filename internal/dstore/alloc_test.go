package dstore

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"pstorm/internal/hstore"
	"pstorm/internal/profile"
)

// profileRows is a batch shaped like the seven rows one PutProfile
// writes: a data-flow, a static and a cost row per side, one column per
// feature, and the encoded profile.
func profileRows(job string) []hstore.Row {
	row := func(key string, features []string) hstore.Row {
		cols := make(map[string][]byte, len(features))
		for i, f := range features {
			cols[f] = fmt.Appendf(nil, "%g", float64(i)+0.25)
		}
		return hstore.Row{Key: key + "!" + job, Columns: cols}
	}
	static := []string{"combiner", "input_format", "output_format", "cfg", "callsig"}
	meta := hstore.Row{Key: "meta!" + job, Columns: map[string][]byte{"p": []byte(strings.Repeat("x", 2048))}}
	return []hstore.Row{
		row("dyn-map", profile.MapDataFlowFeatures),
		row("dyn-red", profile.ReduceDataFlowFeatures),
		row("stat-map", static),
		row("stat-red", static),
		row("cost-map", profile.MapCostFeatures),
		row("cost-red", profile.ReduceCostFeatures),
		meta,
	}
}

// batchPutAllocs is what one in-process BatchPut of a profile's seven
// rows allocates on a primary with one follower: the region's gate, the
// local write into the memstore, and the Apply of the stamped cells to
// the follower through its conn.
const batchPutAllocs = 78

// TestBatchPutAllocs holds one BatchPut to within 1 % of batchPutAllocs.
// A change that moves the count on purpose updates the constant and
// says why.
func TestBatchPutAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation golden; run without -short and -race")
	}
	p, f, _ := gatedPair(t)
	rows := profileRows("job-1")
	ctx := context.Background()
	allocs := testing.AllocsPerRun(20, func() {
		if err := p.BatchPut(ctx, "t", rows); err != nil {
			t.Fatal(err)
		}
	})
	if _, ok, err := f.FollowerGet(ctx, "t", rows[0].Key); err != nil || !ok {
		t.Fatalf("the follower misses the batch: ok=%v err=%v", ok, err)
	}
	t.Logf("%.1f allocations per BatchPut", allocs)
	if math.Abs(allocs-batchPutAllocs) > batchPutAllocs/100 {
		t.Errorf("one BatchPut allocated %.0f times, want %d ± 1 %%", allocs, batchPutAllocs)
	}
}
