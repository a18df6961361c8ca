package hstore

import (
	"errors"
	"reflect"
	"testing"
)

// walRecord is one decoded WAL record, as replay hands it on.
type walRecord struct {
	Kind  byte
	Table string
	Cell  Cell
}

// replayWALRecords replays raw as a WAL: frames through ReplayLog, each
// payload through the WAL's decoder.
func replayWALRecords(raw []byte) (recs []walRecord, clean int64, err error) {
	clean, err = ReplayLog(raw, func(p []byte) error {
		kind, table, c, err := decodeWALPayload(p)
		if err == nil {
			recs = append(recs, walRecord{kind, table, c})
		}
		return err
	})
	return recs, clean, err
}

// FuzzReplayLog feeds arbitrary bytes to the shared log's frame decoder
// and the WAL's payload decoder behind it. Replay never panics; the
// clean prefix it reports ends on a frame boundary; and replaying just
// that prefix gives the same records and stops clean, not corrupt. The
// seed corpus under testdata/fuzz (the golden WAL, a torn tail, a
// flipped CRC, a huge length field, a checksummed malformed record, an
// unknown record kind, an empty file) runs as regression inputs in
// plain `go test`.
func FuzzReplayLog(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		recs, clean, _ := replayWALRecords(raw)
		if clean < 0 || clean > int64(len(raw)) {
			t.Fatalf("clean prefix %d outside input of %d bytes", clean, len(raw))
		}
		off := int64(0)
		for off < clean {
			_, n, err := DecodeFrame(raw[off:clean])
			if err != nil {
				t.Fatalf("clean prefix of %d bytes has a bad frame at %d: %v", clean, off, err)
			}
			off += int64(n)
		}
		again, clean2, err := replayWALRecords(raw[:clean])
		if err != nil || clean2 != clean || !reflect.DeepEqual(again, recs) {
			t.Fatalf("clean prefix replays differently: err=%v clean=%d/%d records=%d/%d", err, clean2, clean, len(again), len(recs))
		}
	})
}

// TestFailedSyncPutIsNotReplayed: a Put whose WAL fsync fails is
// reported failed and cut from the log, so a restart cannot bring it
// back, and the next Put lands on the clean boundary.
func TestFailedSyncPutIsNotReplayed(t *testing.T) {
	dir := t.TempDir()
	fsys := &syncFailFS{FS: OSFS}
	s, err := OpenDurableWith(dir, DurableOptions{FS: fsys, SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, "t", "a", "c", "1")
	failSync := errors.New("test: fsync failed")
	fsys.err = failSync
	if err := s.Put("t", "b", "c", []byte("2")); !errors.Is(err, failSync) {
		t.Fatalf("put with a failing fsync: err=%v", err)
	}
	fsys.err = nil
	mustPut(t, s, "t", "c", "c", "3")

	back, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	for row, want := range map[string]bool{"a": true, "b": false, "c": true} {
		if _, ok, err := back.Get("t", row); ok != want || err != nil {
			t.Errorf("row %s after restart: found=%v err=%v, want found=%v", row, ok, err, want)
		}
	}
	if n := back.Obs().Snapshot().Counters["store_corruptions_detected_total"]; n != 0 {
		t.Errorf("replay counted %d corruptions; the failed record should be gone", n)
	}
}

// syncFailFS fails every fsync with err while it is set.
type syncFailFS struct {
	FS
	err error
}

func (f *syncFailFS) OpenAppend(path string) (AppendFile, error) {
	af, err := f.FS.OpenAppend(path)
	return syncFailFile{af, f}, err
}

type syncFailFile struct {
	AppendFile
	fs *syncFailFS
}

func (a syncFailFile) Sync() error {
	if a.fs.err != nil {
		return a.fs.err
	}
	return a.AppendFile.Sync()
}
