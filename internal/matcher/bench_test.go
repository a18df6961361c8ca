package matcher_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"pstorm/internal/core"
	"pstorm/internal/hstore"
	"pstorm/internal/matcher"
	"pstorm/internal/profile"
)

// flushedStore holds 600 stored profiles on an in-process hstore whose
// rows all sit in flushed sstables, so every read the matcher issues
// opens compressed blocks. Five CFGs and a spread of dynamics give
// stage 1 many survivors and stage 2 real work. It returns the store
// and a sample that matches through stage 2.
func flushedStore(tb testing.TB) (matcher.Store, *profile.Profile) {
	ctx := context.Background()
	srv := hstore.NewServer()
	st, err := core.NewStore(ctx, hstore.Connect(srv))
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		p := fab(fmt.Sprintf("stored-%03d", i), "job", int64(1+i%7)<<28,
			1+float64(i%40)/20, 1+float64(i%9)/4, fmt.Sprintf("B L(B%d)", i%5), fmt.Sprintf("M%d", i%5))
		if err := st.PutProfile(ctx, p); err != nil {
			tb.Fatal(err)
		}
	}
	if err := srv.Flush(core.TableName); err != nil {
		tb.Fatal(err)
	}
	sample := sampleLike(fab("sample", "job", 3<<28, 1.5, 2, "B L(B2)", "M2"), 3<<28)
	res, err := matcher.New().Match(ctx, st, sample)
	if err != nil || !res.Matched() || res.MapReport.AfterCFG == 0 {
		tb.Fatalf("setup: match = %+v, err %v; want a stage-2 match", res, err)
	}
	return st, sample
}

// BenchmarkMatchFlushed times one Match against flushedStore.
func BenchmarkMatchFlushed(b *testing.B) {
	ctx := context.Background()
	st, sample := flushedStore(b)
	m := matcher.New()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := m.Match(ctx, st, sample); err != nil {
			b.Fatal(err)
		}
	}
}

// matchFlushedAllocs is what one warm Match against flushedStore
// allocates: its matcher work, both sides' scans and point reads and
// the store's row decoding. Allocation repeats run to run where
// timings do not, so a read-path change that costs allocations shows
// here first.
const matchFlushedAllocs = 2619

// TestMatchFlushedAllocs holds one in-process Match to within 1 % of
// matchFlushedAllocs. A change that moves it on purpose updates the
// constant and says why.
func TestMatchFlushedAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 600-profile store")
	}
	ctx := context.Background()
	st, sample := flushedStore(t)
	m := matcher.New()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := m.Match(ctx, st, sample); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.1f allocations per Match", allocs)
	if math.Abs(allocs-matchFlushedAllocs) > matchFlushedAllocs/100 {
		t.Errorf("one Match allocated %.0f times, want %d ± 1 %%", allocs, matchFlushedAllocs)
	}
}
