package hstore

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"testing"
)

// TestProjectRoundTrip: a Project keeps its inner filter and its column
// list through the wire form, nested inside And and around another
// Project alike.
func TestProjectRoundTrip(t *testing.T) {
	filters := []*ProjectFilter{
		Project(&ColumnEqualsFilter{Column: "!CFG", Value: "B L(B)"}, "A", "B"),
		Project(nil, "A"),
		Project(And(&PrefixFilter{Prefix: "p"}, Project(&PrefixFilter{Prefix: "pq"}, "x"))),
		Project(Project(&JaccardFilter{Want: map[string]string{"A": "1"}, Threshold: 1}, "B"), "A", "C"),
	}
	rows := []Row{
		row("pq", map[string]string{"!CFG": "B L(B)", "A": "1", "B": "2"}),
		row("p-other", map[string]string{"!CFG": "B", "A": "0"}),
		row("zzz", nil),
	}
	for i, f := range filters {
		wire, err := EncodeFilter(f)
		if err != nil {
			t.Fatalf("filter %d: encode: %v", i, err)
		}
		back, err := DecodeFilter(wire)
		if err != nil {
			t.Fatalf("filter %d: decode %s: %v", i, wire, err)
		}
		p, ok := back.(*ProjectFilter)
		if !ok {
			t.Fatalf("filter %d decoded as %T, want *ProjectFilter", i, back)
		}
		if !slices.Equal(p.Columns, f.Columns) {
			t.Errorf("filter %d: columns %q came back as %q", i, f.Columns, p.Columns)
		}
		for _, r := range rows {
			if f.Matches(r) != p.Matches(r) {
				t.Errorf("filter %d: decoded filter disagrees on row %q", i, r.Key)
			}
		}
		again, err := EncodeFilter(back)
		if err != nil || string(again) != string(wire) {
			t.Errorf("filter %d: re-encoded as %s (err %v), want %s", i, again, err, wire)
		}
	}
}

// TestProjectScan: a projected scan returns the rows the inner filter
// passes, each holding exactly the requested columns it has — a row
// with none of them comes back with nil Columns. RowsReturned counts
// the same rows as the unprojected scan; BytesReturned counts only the
// projected bytes. Rows come from the memstore and from sstables.
func TestProjectScan(t *testing.T) {
	ctx := context.Background()
	s := NewServer()
	if err := s.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	want := map[string]map[string]string{}
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("row%02d", i)
		cols := map[string]string{"kind": fmt.Sprint(i % 2), "a": fmt.Sprint("a", i), "pad": "xxxxxxxxxxxxxxxx"}
		if i%4 != 0 {
			cols["b"] = fmt.Sprint("b", i)
		}
		if i%8 == 0 {
			delete(cols, "a")
		}
		want[key] = cols
		for _, c := range slices.Sorted(maps.Keys(cols)) {
			mustPut(t, s, "t", key, c, cols[c])
		}
		if i == 19 {
			if err := s.Flush("t"); err != nil {
				t.Fatal(err)
			}
		}
	}
	even := &ColumnEqualsFilter{Column: "kind", Value: "0"}

	s.ResetStats()
	full, err := s.Scan(ctx, "t", "", "", even, 0)
	if err != nil {
		t.Fatal(err)
	}
	fullStats := s.Stats()
	s.ResetStats()
	got, err := s.Scan(ctx, "t", "", "", Project(even, "a", "b", "missing"), 0)
	if err != nil {
		t.Fatal(err)
	}
	projStats := s.Stats()

	if len(got) != len(full) || len(got) != 20 {
		t.Fatalf("projected scan returned %d rows, unprojected %d, want 20", len(got), len(full))
	}
	var wantBytes int64
	for i, r := range got {
		if r.Key != full[i].Key {
			t.Fatalf("row %d: projected key %q, unprojected %q", i, r.Key, full[i].Key)
		}
		exp := map[string]string{}
		for _, c := range []string{"a", "b"} {
			if v, ok := want[r.Key][c]; ok {
				exp[c] = v
			}
		}
		if len(exp) == 0 {
			if r.Columns != nil {
				t.Errorf("%s holds none of the columns but came back with %v", r.Key, r.Columns)
			}
		} else if d := columnsDiff(r, exp); d != "" {
			t.Errorf("%s: %s", r.Key, d)
		}
		wantBytes += r.Bytes()
	}
	if projStats.RowsReturned != fullStats.RowsReturned || projStats.RowsScanned != fullStats.RowsScanned {
		t.Errorf("projection moved the row counts: %+v, unprojected %+v", projStats, fullStats)
	}
	if projStats.BytesReturned != wantBytes || projStats.BytesReturned >= fullStats.BytesReturned {
		t.Errorf("projected scan counted %d bytes, want %d (unprojected %d)", projStats.BytesReturned, wantBytes, fullStats.BytesReturned)
	}
}
