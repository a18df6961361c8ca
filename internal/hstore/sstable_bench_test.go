package hstore

import (
	"context"
	"fmt"
	"testing"
)

// benchCells is sized so the table spans many blocks with a mix of
// flate and raw payloads, like a flushed profile-store segment.
func benchCells(b *testing.B) []Cell {
	b.Helper()
	return compressibleCells(2000)
}

func BenchmarkSSTableBlockEncode(b *testing.B) {
	cells := benchCells(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := buildSSTable(cells)
		if t.count != len(cells) {
			b.Fatalf("built %d cells, want %d", t.count, len(cells))
		}
	}
	b.ReportMetric(compressionRatioOf(cells), "ratio")
}

func compressionRatioOf(cells []Cell) float64 {
	return buildSSTable(cells).compressionRatio()
}

func BenchmarkSSTableBlockDecode(b *testing.B) {
	raw := buildSSTable(benchCells(b)).encode()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeSSTable(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSSTableScanIterator walks every cell through the lazy block
// iterator — per-block CRC check, decompression, and prefix-decoded
// entries included.
func BenchmarkSSTableScanIterator(b *testing.B) {
	cells := benchCells(b)
	t := buildSSTable(cells)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := t.scanRange("", "", func(Cell) bool {
			n++
			return true
		}); err != nil {
			b.Fatal(err)
		}
		if n != len(cells) {
			b.Fatalf("scanned %d cells, want %d", n, len(cells))
		}
	}
}

// BenchmarkSSTableSeekScan measures a selective range read: seek into
// the middle of the table and visit one row's cells, the PST4 get path.
func BenchmarkSSTableSeekScan(b *testing.B) {
	t := buildSSTable(benchCells(b))
	row := fmt.Sprintf("dyn/job_%04d", 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := t.scanRange(row, row+"\x00", func(Cell) bool {
			n++
			return true
		}); err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.Fatal("seek scan found no cells")
		}
	}
}

// profileServer holds one flushed region of 2000 profile-shaped rows:
// twelve numeric features and a kind column.
func profileServer(b *testing.B) *Server {
	const rows = 2000
	s := NewServer()
	if err := s.CreateTable("t"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		r := Row{Key: fmt.Sprintf("dyn/job_%05d", i), Columns: map[string][]byte{
			"kind": []byte(fmt.Sprintf("k%d", i%10)),
		}}
		for f := 0; f < 12; f++ {
			r.Columns[fmt.Sprintf("feat%02d", f)] = []byte(fmt.Sprintf("%d.%06d", f, i*37%1000000))
		}
		if err := s.PutRow("t", r); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Flush("t"); err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkRegionScanFiltered scans profileServer's region through a
// pushed-down filter that keeps one row in ten: the matcher's scan
// shape, where most merged rows exist only to fail their filter.
func BenchmarkRegionScanFiltered(b *testing.B) {
	s := profileServer(b)
	ctx := context.Background()
	keep := &ColumnEqualsFilter{Column: "kind", Value: "k0"}
	b.ReportAllocs()
	for b.Loop() {
		out, err := s.Scan(ctx, "t", "", "", keep, 0)
		if err != nil || len(out) != 200 {
			b.Fatalf("scan kept %d rows, err %v; want 200", len(out), err)
		}
	}
}

// BenchmarkRegionScanCold is BenchmarkRegionScanFiltered through an
// empty block cache each time, so every block is a miss: the first
// read of a freshly flushed or compacted segment.
func BenchmarkRegionScanCold(b *testing.B) {
	s := profileServer(b)
	ctx := context.Background()
	keep := &ColumnEqualsFilter{Column: "kind", Value: "k0"}
	b.ReportAllocs()
	for b.Loop() {
		s.stats.blocks = newBlockCache(blockCacheBytes, nil, nil)
		out, err := s.Scan(ctx, "t", "", "", keep, 0)
		if err != nil || len(out) != 200 {
			b.Fatalf("scan kept %d rows, err %v; want 200", len(out), err)
		}
	}
}
