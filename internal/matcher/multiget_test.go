package matcher_test

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"testing"

	"pstorm/internal/hstore"
	"pstorm/internal/matcher"
)

// countingStore wraps a MultiGetStore and records the feature reads the
// matcher issues. The log is mutex-guarded because Match reads both
// sides concurrently.
type countingStore struct {
	matcher.MultiGetStore
	mu        sync.Mutex
	scans     map[string][]hstore.Filter // ftype → filters, in call order
	multiGets map[string]int             // ftype → calls
	gets      int
}

func newCountingStore(st matcher.Store) *countingStore {
	return &countingStore{
		MultiGetStore: st.(matcher.MultiGetStore),
		scans:         make(map[string][]hstore.Filter),
		multiGets:     make(map[string]int),
	}
}

func (c *countingStore) ScanFeatures(ctx context.Context, ftype string, f hstore.Filter) ([]matcher.Entry, error) {
	c.mu.Lock()
	c.scans[ftype] = append(c.scans[ftype], f)
	c.mu.Unlock()
	return c.MultiGetStore.ScanFeatures(ctx, ftype, f)
}

func (c *countingStore) MultiGetFeatures(ctx context.Context, ftype string, jobIDs []string) (map[string]hstore.Row, error) {
	c.mu.Lock()
	c.multiGets[ftype]++
	c.mu.Unlock()
	return c.MultiGetStore.MultiGetFeatures(ctx, ftype, jobIDs)
}

func (c *countingStore) GetFeatures(ctx context.Context, ftype, jobID string) (hstore.Row, bool, error) {
	c.mu.Lock()
	c.gets++
	c.mu.Unlock()
	return c.MultiGetStore.GetFeatures(ctx, ftype, jobID)
}

// plainStore strips the MultiGetStore upgrade so the matcher falls back
// to per-candidate point reads.
type plainStore struct{ matcher.Store }

// TestMatchBatchesStage2Reads: stage 2 is one pushed-down scan per side
// — a CFG equality filter over the static rows, projected onto the
// Jaccard columns — never a point read per stage-1 survivor. Only the cost fallback still multi-gets, and only
// the rows it needs.
func TestMatchBatchesStage2Reads(t *testing.T) {
	st := newStore(t)
	for i := 0; i < 4; i++ {
		putProfile(t, st, fab(fmt.Sprintf("stored-%d", i), "job", 1<<30, float64(i+1), 1, "cfg", "M"))
	}
	sample := sampleLike(fab("sample", "job", 1<<30, 2, 1, "cfg", "M"), 1<<30)

	cs := newCountingStore(st)
	m, err := matcher.New().Match(context.Background(), cs, sample)
	if err != nil {
		t.Fatalf("Match: %v", err)
	}
	if !m.Matched() || m.MapReport.UsedCostFallback || m.ReduceReport.UsedCostFallback {
		t.Fatalf("want a static match on both sides, got %+v / %+v", m.MapReport, m.ReduceReport)
	}
	// Each hit comes back trimmed to the columns stage 3 reads.
	jaccardCols := map[string][]string{
		matcher.FTStatMap: slices.Sorted(maps.Keys(sample.Map.StaticCategorical)),
		matcher.FTStatRed: slices.Sorted(maps.Keys(sample.Reduce.StaticCategorical)),
	}
	for ftype, cols := range jaccardCols {
		scans := cs.scans[ftype]
		if len(scans) != 1 {
			t.Fatalf("%s: %d scans, want exactly 1", ftype, len(scans))
		}
		p, ok := scans[0].(*hstore.ProjectFilter)
		if !ok {
			t.Errorf("%s: scan filter = %#v, want a Project", ftype, scans[0])
			continue
		}
		f, ok := p.Filter.(*hstore.ColumnEqualsFilter)
		if !ok || f.Column != matcher.CFGColumn || f.Value != "cfg" || len(cols) == 0 || !slices.Equal(p.Columns, cols) {
			t.Errorf("%s: scan filter = Project{%#v, %q}, want Project{ColumnEqualsFilter{%s, cfg}, %q}",
				ftype, p.Filter, p.Columns, matcher.CFGColumn, cols)
		}
	}
	for ftype, n := range cs.multiGets {
		if strings.HasPrefix(ftype, "stat") {
			t.Errorf("stage 2 multi-got %s %d times; it must be a pushed-down scan", ftype, n)
		}
	}
	if cs.gets != 0 {
		t.Errorf("matcher issued %d per-row GetFeatures calls", cs.gets)
	}

	// A probe whose CFG no stored job shares empties stage 2, and the cost
	// fallback reads the survivors' cost rows in one batch per side.
	foreign := newCountingStore(st)
	fm, err := matcher.New().Match(context.Background(), foreign, sampleLike(fab("new", "job", 1<<30, 2, 1, "other", "M"), 1<<30))
	if err != nil {
		t.Fatalf("Match (foreign CFG): %v", err)
	}
	if !fm.MapReport.UsedCostFallback || !fm.ReduceReport.UsedCostFallback {
		t.Fatalf("foreign CFG did not reach the cost fallback: %+v / %+v", fm.MapReport, fm.ReduceReport)
	}
	for _, ftype := range []string{matcher.FTCostMap, matcher.FTCostRed} {
		if n := foreign.multiGets[ftype]; n != 1 {
			t.Errorf("cost fallback multi-got %s %d times, want 1", ftype, n)
		}
	}
	if foreign.gets != 0 {
		t.Errorf("cost fallback issued %d per-row GetFeatures calls", foreign.gets)
	}

	// The read path must be invisible in the result: a store without the
	// batched upgrade matches the same donors at the same distances.
	plain, err := matcher.New().Match(context.Background(), plainStore{Store: st}, sample)
	if err != nil {
		t.Fatalf("Match (plain): %v", err)
	}
	if m.MapJobID != plain.MapJobID || m.ReduceJobID != plain.ReduceJobID {
		t.Errorf("batched match chose (%s, %s), per-row match chose (%s, %s)",
			m.MapJobID, m.ReduceJobID, plain.MapJobID, plain.ReduceJobID)
	}
	if m.MapReport.WinnerDistance != plain.MapReport.WinnerDistance ||
		m.ReduceReport.WinnerDistance != plain.ReduceReport.WinnerDistance {
		t.Errorf("batched distances (%v, %v) != per-row distances (%v, %v)",
			m.MapReport.WinnerDistance, m.ReduceReport.WinnerDistance,
			plain.MapReport.WinnerDistance, plain.ReduceReport.WinnerDistance)
	}
}
