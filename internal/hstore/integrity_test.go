package hstore

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// walFrameStarts parses the CRC-framed log and returns each frame's
// byte offset.
func walFrameStarts(t *testing.T, raw []byte) []int64 {
	t.Helper()
	var starts []int64
	off := int64(0)
	for off+walFrameHeader <= int64(len(raw)) {
		starts = append(starts, off)
		n := binary.LittleEndian.Uint32(raw[off:])
		off += walFrameHeader + int64(n)
	}
	if off != int64(len(raw)) {
		t.Fatalf("WAL does not parse into whole frames: parsed %d of %d bytes", off, len(raw))
	}
	return starts
}

// countRows scans table t and returns the row count.
func countRows(t *testing.T, s *Server, table string) int {
	t.Helper()
	rows, err := s.Scan(context.Background(), table, "", "", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return len(rows)
}

// TestWALTornTailEveryOffset is the exhaustive crash-point sweep: with
// N records logged, truncating the log at EVERY byte offset of the
// last record must recover exactly N-1 records — never garbage, never
// a failed replay, and never a corruption count (a torn tail is a
// crash artifact, not rot).
func TestWALTornTailEveryOffset(t *testing.T) {
	const puts = 5
	dir := t.TempDir()
	s, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < puts; i++ {
		if err := s.Put("t", fmt.Sprintf("r%d", i), "c", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	starts := walFrameStarts(t, raw)
	if len(starts) < 2 {
		t.Fatalf("expected several WAL frames, got %d", len(starts))
	}
	last := starts[len(starts)-1]

	for cut := last; cut < int64(len(raw)); cut++ {
		cdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cdir, walFileName), raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		back, err := OpenDurable(cdir)
		if err != nil {
			t.Fatalf("cut=%d: recovery failed: %v", cut, err)
		}
		if got := countRows(t, back, "t"); got != puts-1 {
			t.Fatalf("cut=%d: recovered %d rows, want %d", cut, got, puts-1)
		}
		if _, ok, _ := back.Get("t", fmt.Sprintf("r%d", puts-1)); ok {
			t.Fatalf("cut=%d: torn final record partially applied", cut)
		}
		if n := back.Obs().Snapshot().Counters["store_corruptions_detected_total"]; n != 0 {
			t.Fatalf("cut=%d: torn tail miscounted as corruption (%d)", cut, n)
		}
		// The tail must be gone from disk too, so the next append never
		// lands after garbage.
		st, err := os.Stat(filepath.Join(cdir, walFileName))
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() != last {
			t.Fatalf("cut=%d: WAL not truncated to clean prefix: %d bytes, want %d", cut, st.Size(), last)
		}
	}
}

// TestWALCorruptRecordStopsReplay flips payload bytes of a mid-log
// record: replay must stop at the corrupt frame (keeping the records
// before it, dropping it and everything after) and count the
// corruption.
func TestWALCorruptRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	_ = s.CreateTable("t")
	for i := 0; i < 4; i++ {
		_ = s.Put("t", fmt.Sprintf("r%d", i), "c", []byte("v"))
	}
	walPath := filepath.Join(dir, walFileName)
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	starts := walFrameStarts(t, raw)
	// Corrupt the payload of the second-to-last frame (a mid-log Put).
	victim := starts[len(starts)-2]
	raw[victim+walFrameHeader] ^= 0xFF
	if err := os.WriteFile(walPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := OpenDurable(dir)
	if err != nil {
		t.Fatalf("recovery must survive a corrupt record: %v", err)
	}
	if got := countRows(t, back, "t"); got != 2 {
		t.Fatalf("recovered %d rows, want 2 (those before the corrupt frame)", got)
	}
	if n := back.Obs().Snapshot().Counters["store_corruptions_detected_total"]; n != 1 {
		t.Fatalf("corruption count = %d, want 1", n)
	}
	// The log was truncated at the corrupt frame; fresh writes append
	// after the clean prefix and recover.
	if err := back.Put("t", "fresh", "c", []byte("v")); err != nil {
		t.Fatal(err)
	}
	again, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := again.Get("t", "fresh"); !ok {
		t.Error("write after corruption recovery lost")
	}
}

// TestSSTableBitFlipDetected flips one bit in a flushed sstable's data
// area: every read of the damaged region must fail with a
// CorruptionError (never return wrong bytes), the region must latch
// quarantined, and the corruption must be counted exactly once.
func TestSSTableBitFlipDetected(t *testing.T) {
	s := NewServer()
	if err := s.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := s.Put("t", fmt.Sprintf("r%02d", i), "c", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush("t"); err != nil {
		t.Fatal(err)
	}
	if !s.CorruptRegionData("t", s.Meta()[0].RegionID, 100) {
		t.Fatal("CorruptRegionData found no sstable to damage")
	}
	if _, err := s.Scan(context.Background(), "t", "", "", nil, 0); !IsCorruption(err) {
		t.Fatalf("scan over flipped bit: err=%v, want CorruptionError", err)
	}
	// Point reads of the damaged region refuse too — quarantine latched.
	if _, _, err := s.Get("t", "r10"); !IsCorruption(err) {
		t.Fatalf("get after quarantine: err=%v, want CorruptionError", err)
	}
	// Writes to the quarantined region are refused (acking a write into
	// a copy that cannot be read back would lose it silently).
	if err := s.Put("t", "r10", "c", []byte("x")); !IsCorruption(err) {
		t.Fatalf("put into quarantined region: err=%v, want CorruptionError", err)
	}
	q := s.Quarantined()
	if len(q) != 1 || q[0].Table != "t" {
		t.Fatalf("Quarantined() = %v, want one region of table t", q)
	}
	// Repeated hits count once: the latch dedupes.
	_, _ = s.Scan(context.Background(), "t", "", "", nil, 0)
	_, _, _ = s.Get("t", "r20")
	if n := s.Obs().Snapshot().Counters["store_corruptions_detected_total"]; n != 1 {
		t.Fatalf("corruption count = %d, want 1 (latched)", n)
	}
}

// TestSSTableFileCorruptionDetectedOnLoad damages a checkpointed
// sstable on disk; reloading must detect it via the whole-file CRC and
// refuse the segment rather than serve damaged rows.
func TestSSTableFileCorruptionDetectedOnLoad(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	_ = s.CreateTable("t")
	for i := 0; i < 30; i++ {
		_ = s.Put("t", fmt.Sprintf("r%02d", i), "c", []byte("v"))
	}
	if err := s.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	// Find a segment file and flip a byte in the middle.
	matches, err := filepath.Glob(filepath.Join(dir, "*.sst"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no sstable files found to corrupt (err=%v)", err)
	}
	raw, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(matches[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadServerFS(dir, OSFS); !IsCorruption(err) {
		t.Fatalf("loading corrupted checkpoint: err=%v, want CorruptionError", err)
	}
}
