package hstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"testing"
	"time"
)

// sameCells asserts two cell streams are identical.
func sameCells(t *testing.T, got, want []Cell, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d cells, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Row != want[i].Row || got[i].Column != want[i].Column ||
			got[i].Ts != want[i].Ts || string(got[i].Value) != string(want[i].Value) ||
			got[i].Deleted != want[i].Deleted {
			t.Fatalf("%s: cell %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

func scanAll(t *testing.T, tbl *sstable) []Cell {
	t.Helper()
	var out []Cell
	if err := tbl.scanRange("", "", func(c Cell) bool {
		c.Value = append([]byte(nil), c.Value...)
		out = append(out, c)
		return true
	}); err != nil {
		t.Fatalf("scanRange: %v", err)
	}
	return out
}

// An image whose magic is not PST4 — here PST3's, the retired previous
// format — is corruption even when its whole-file checksum is valid.
func TestSSTableUnknownMagicRejected(t *testing.T) {
	raw := buildSSTable(makeCells(50, 21)).encode()
	binary.LittleEndian.PutUint32(raw[len(raw)-8:], 0x50535433) // "PST3"
	binary.LittleEndian.PutUint32(raw[len(raw)-4:], crc32c(raw[:len(raw)-4]))
	if _, err := decodeSSTable(raw); !IsCorruption(err) {
		t.Fatalf("decode unknown-magic image = %v, want CorruptionError", err)
	}
}

// compressibleCells builds profile-vector-shaped rows: ASCII decimal
// feature columns, the workload the block codec is sized for.
func compressibleCells(n int) []Cell {
	m := newMemStore(9)
	for i := 0; i < n; i++ {
		row := fmt.Sprintf("dyn/job_%04d", i)
		for f := 0; f < 6; f++ {
			m.Put(Cell{
				Row:    row,
				Column: fmt.Sprintf("feat%d", f),
				Ts:     1,
				Value:  []byte(fmt.Sprintf("%d.%06d", f, i*37%1000000)),
			})
		}
	}
	return m.Cells()
}

// Profile-vector rows must actually compress (> 1.5x) and decode back
// bit-identically through the lazy block iterator.
func TestSSTableCompressedBlocksRoundTrip(t *testing.T) {
	cells := compressibleCells(400)
	tbl := buildSSTable(cells)
	if r := tbl.compressionRatio(); r <= 1.5 {
		t.Fatalf("compression ratio %.2f on profile-vector rows, want > 1.5", r)
	}
	flate := 0
	for _, b := range tbl.blocks {
		if b.codec == codecFlate {
			flate++
		}
	}
	if flate == 0 {
		t.Fatal("no block chose the flate codec")
	}
	sameCells(t, scanAll(t, tbl), cells, "compressed table")
	back, err := decodeSSTable(tbl.encode())
	if err != nil {
		t.Fatal(err)
	}
	sameCells(t, scanAll(t, back), cells, "encoded+decoded compressed table")
}

// A flipped bit inside a compressed block payload must fail the block
// CRC on first touch and quarantine the region — compression must not
// weaken the PR 5 corruption guarantees.
func TestCorruptedCompressedBlockQuarantinesRegion(t *testing.T) {
	s := NewServer()
	if err := s.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		row := fmt.Sprintf("dyn/job_%04d", i)
		for f := 0; f < 4; f++ {
			if err := s.Put("t", row, fmt.Sprintf("feat%d", f), []byte(fmt.Sprintf("%d.%06d", f, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Flush("t"); err != nil {
		t.Fatal(err)
	}
	regionID := s.Meta()[0].RegionID
	// The damaged segment must hold flate-compressed blocks, so the flip
	// lands in compressed bytes, not plaintext.
	s.mu.RLock()
	seg := s.tables["t"].regions[0].sstables[0]
	s.mu.RUnlock()
	hasFlate := false
	for _, b := range seg.blocks {
		if b.codec == codecFlate {
			hasFlate = true
		}
	}
	if !hasFlate {
		t.Fatal("setup: segment has no compressed block")
	}
	if !s.CorruptRegionData("t", regionID, uint64(seg.blocks[0].off+4)) {
		t.Fatal("CorruptRegionData found no sstable to damage")
	}
	if _, err := s.Scan(context.Background(), "t", "", "", nil, 0); !IsCorruption(err) {
		t.Fatalf("scan of damaged region = %v, want CorruptionError", err)
	}
	if q := s.Quarantined(); len(q) != 1 || q[0].RegionID != regionID {
		t.Fatalf("Quarantined() = %v, want region %d", q, regionID)
	}
	// The quarantine latches: later reads refuse without rescanning.
	if _, _, err := s.Get("t", "dyn/job_0000"); !IsCorruption(err) {
		t.Fatalf("get after quarantine = %v, want CorruptionError", err)
	}
}

// A pooled flate reader that hit a corrupt block must inflate the next
// good block exactly: Reset clears the decoder's error state.
func TestPooledFlateReaderSurvivesCorruption(t *testing.T) {
	var src []byte
	for _, c := range compressibleCells(40) {
		src = appendBlockEntry(src, c, "")
	}
	good, codec := compressBlock(src)
	if codec != codecFlate {
		t.Fatal("setup: block did not compress")
	}
	bad := append([]byte(nil), good...)
	bad[0] |= 0x06 // block header BTYPE 11: reserved, invalid in any stream
	if bad[0] == good[0] {
		t.Fatal("setup: the flip changed nothing")
	}
	fr := newFlateReader()
	if _, err := fr.inflate(bad, uint32(len(src))); !IsCorruption(err) {
		t.Fatalf("inflate of a damaged block = %v, want CorruptionError", err)
	}
	out, err := fr.inflate(good, uint32(len(src)))
	if err != nil {
		t.Fatalf("inflate of a good block after a damaged one: %v", err)
	}
	if !bytes.Equal(out, src) {
		t.Fatal("reused reader inflated a good block to different bytes")
	}
}

// Writes that land while a compaction is merging outside the lock must
// survive the swap: the merged segment replaces only the run it
// snapshotted, and mid-compaction flushes stay stacked above it.
func TestCompactionKeepsMidCompactionWrites(t *testing.T) {
	s := NewServer()
	s.FlushBytes = 1 // every put flushes: many tiny segments
	s.CompactionRateLimit = 1
	injected := false
	s.CompactionSleep = func(time.Duration) {
		if injected {
			return
		}
		injected = true
		for i := 0; i < 5; i++ {
			if err := s.Put("t", fmt.Sprintf("mid%d", i), "c", []byte("during")); err != nil {
				t.Errorf("mid-compaction put: %v", err)
			}
		}
	}
	if err := s.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := s.Put("t", fmt.Sprintf("r%d", i), "c", []byte("before")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact("t"); err != nil {
		t.Fatal(err)
	}
	if !injected {
		t.Fatal("setup: no compaction ran, nothing was injected")
	}
	for i := 0; i < 8; i++ {
		r, ok, err := s.Get("t", fmt.Sprintf("r%d", i))
		if err != nil || !ok || string(r.Columns["c"]) != "before" {
			t.Fatalf("pre-compaction row r%d = %v (ok=%v err=%v)", i, r, ok, err)
		}
	}
	for i := 0; i < 5; i++ {
		r, ok, err := s.Get("t", fmt.Sprintf("mid%d", i))
		if err != nil || !ok || string(r.Columns["c"]) != "during" {
			t.Fatalf("mid-compaction row mid%d = %v (ok=%v err=%v)", i, r, ok, err)
		}
	}
	// Major compaction still converges to one segment once quiesced.
	counts, err := s.SegmentCounts("t")
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 1 {
		t.Errorf("segments after Compact = %d, want 1", counts[0])
	}
	// Tiered compactions ran and were accounted.
	snap := s.Obs().Snapshot()
	if snap.Counters["compaction_tier_merges_total"] == 0 {
		t.Error("compaction_tier_merges_total never incremented despite many tiny flushes")
	}
	if h, ok := snap.Histograms["sstable_block_compress_ratio"]; !ok || h.Count == 0 {
		t.Error("sstable_block_compress_ratio never observed")
	}
}
