package matcher_test

import (
	"context"
	"fmt"
	"testing"

	"pstorm/internal/core"
	"pstorm/internal/hstore"
	"pstorm/internal/matcher"
)

// BenchmarkMatchFlushed times one Match against 600 stored profiles on
// an in-process hstore whose rows all sit in flushed sstables, so every
// read the matcher issues opens compressed blocks. Five CFGs and a
// spread of dynamics give stage 1 many survivors and stage 2 real work.
func BenchmarkMatchFlushed(b *testing.B) {
	ctx := context.Background()
	srv := hstore.NewServer()
	st, err := core.NewStore(ctx, hstore.Connect(srv))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		p := fab(fmt.Sprintf("stored-%03d", i), "job", int64(1+i%7)<<28,
			1+float64(i%40)/20, 1+float64(i%9)/4, fmt.Sprintf("B L(B%d)", i%5), fmt.Sprintf("M%d", i%5))
		if err := st.PutProfile(ctx, p); err != nil {
			b.Fatal(err)
		}
	}
	if err := srv.Flush(core.TableName); err != nil {
		b.Fatal(err)
	}
	sample := sampleLike(fab("sample", "job", 3<<28, 1.5, 2, "B L(B2)", "M2"), 3<<28)
	m := matcher.New()
	res, err := m.Match(ctx, st, sample)
	if err != nil || !res.Matched() || res.MapReport.AfterCFG == 0 {
		b.Fatalf("setup: match = %+v, err %v; want a stage-2 match", res, err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := m.Match(ctx, st, sample); err != nil {
			b.Fatal(err)
		}
	}
}
