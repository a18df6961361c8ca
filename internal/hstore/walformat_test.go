package hstore

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// walScript is the fixed write history behind testdata/wal: two table
// creates, plain puts, an overwrite, a column tombstone, a whole-row
// delete and a multi-column row, stamped by a pinned wall clock so the
// log it leaves is the same bytes on every run.
func walScript(t *testing.T, dir string) *Server {
	t.Helper()
	s, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.WallClock = func() time.Time { return time.Unix(1_700_000_000, 0) }
	steps := []func() error{
		func() error { return s.CreateTable("profiles") },
		func() error { return s.CreateTable("aux") },
		func() error { return s.Put("profiles", "dyn/job-a", "map_sel", []byte("0.42")) },
		func() error { return s.Put("profiles", "dyn/job-b", "map_sel", []byte("1.5")) },
		func() error { return s.Put("profiles", "dyn/job-a", "map_sel", []byte("0.43")) },
		func() error { return s.Put("profiles", "stat/job-c", "cfg", []byte("mapper=wc")) },
		func() error { return s.Delete("profiles", "dyn/job-b", "map_sel") },
		func() error {
			return s.PutRow("profiles", Row{Key: "meta/job-d", Columns: map[string][]byte{
				"input": []byte("randomtext-1g"), "jar": []byte("wc.jar"), "empty": {},
			}})
		},
		func() error { return s.Put("aux", "k", "c", []byte{0, 1, 2, 0xff}) },
		func() error { return s.Put("aux", "gone", "c", []byte("x")) },
		func() error { return s.DeleteRow("aux", "gone") },
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("script step %d: %v", i, err)
		}
	}
	return s
}

// walRows is the replayed image of every table, as the rows.json
// beside the fixture records it. That file predates Row's JSON tags, so
// rows are rendered with the untagged field names it was written with.
func walRows(t *testing.T, s *Server) []byte {
	t.Helper()
	type untaggedRow struct {
		Key     string
		Columns map[string][]byte
	}
	out := map[string][]untaggedRow{}
	for _, name := range s.Tables() {
		rows, err := s.Scan(context.Background(), name, "", "", nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		var conv []untaggedRow
		if rows != nil {
			conv = make([]untaggedRow, len(rows))
		}
		for i, r := range rows {
			conv[i] = untaggedRow(r)
		}
		out[name] = conv
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestWALFormatUnchanged replays a log an earlier build wrote
// (testdata/wal, by walScript) and compares the tables it recovers with
// the rows that build held. Running the script again must write the
// same bytes: neither the record format nor its replay may drift.
func TestWALFormatUnchanged(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "wal", walFileName))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "wal", "rows.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walFileName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := walRows(t, back); !bytes.Equal(got, want) {
		t.Fatalf("replayed rows differ:\n got:  %s\n want: %s", got, want)
	}
	if n := back.Obs().Snapshot().Counters["store_corruptions_detected_total"]; n != 0 {
		t.Fatalf("golden log replayed with %d corruptions", n)
	}

	fresh := t.TempDir()
	walScript(t, fresh)
	wrote, err := os.ReadFile(filepath.Join(fresh, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wrote, raw) {
		t.Fatalf("walScript wrote %d bytes that differ from the %d-byte golden log", len(wrote), len(raw))
	}
}
