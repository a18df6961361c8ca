// Package hstore is a small column-family-oriented store in the HBase
// mould, built as the substrate for the PStorM profile store (Chapter 5
// of the paper). It provides the structural properties PStorM's design
// depends on:
//
//   - rows sorted by row key, horizontally partitioned into key-range
//     regions (so Table 5.1's "<FeatureType>/<JobID>" row keys give the
//     matcher data locality);
//   - one column family with free-form columns per row (extensibility);
//   - a MemStore per region flushed into immutable, bloom-filtered,
//     sparse-indexed segments (SSTables);
//   - a META catalog mapping key ranges to regions;
//   - server-side filter pushdown (§5.3): scan filters are serialized,
//     evaluated at the region server, and only matching rows travel back
//     to the client, with transferred bytes accounted so the pushdown
//     ablation can measure the difference.
package hstore

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Cell is one (row, column, timestamp) → value entry. Within a row and
// column, higher timestamps shadow lower ones. A Deleted cell is a
// tombstone: it hides every older version of its column until a major
// compaction drops both (the standard LSM delete).
type Cell struct {
	Row     string
	Column  string
	Ts      int64
	Value   []byte
	Deleted bool
}

// key orders cells by (row, column, descending ts), the HBase sort.
func (c Cell) less(o Cell) bool {
	if c.Row != o.Row {
		return c.Row < o.Row
	}
	if c.Column != o.Column {
		return c.Column < o.Column
	}
	return c.Ts > o.Ts
}

func (c Cell) String() string {
	return fmt.Sprintf("%s:%s@%d=%q", c.Row, c.Column, c.Ts, c.Value)
}

// Row is a materialized row, its key and latest value per column, as the dstore wire carries it.
type Row struct {
	Key     string            `json:"key"`
	Columns map[string][]byte `json:"columns"`
}

// Bytes returns the approximate wire size of the row (keys + values),
// used for the transfer accounting of the pushdown experiment.
func (r Row) Bytes() int64 {
	n := int64(len(r.Key))
	for c, v := range r.Columns {
		n += int64(len(c) + len(v))
	}
	return n
}

// value returns a column's value, for filters.
func (r Row) value(col string) ([]byte, bool) {
	v, ok := r.Columns[col]
	return v, ok
}

// cellRun is a row as the scan merge yields it: its live cells, in
// column order. Filters read it before any Row map exists.
type cellRun []Cell

// value finds a column's value by binary search.
func (r cellRun) value(col string) ([]byte, bool) {
	i := sort.Search(len(r), func(i int) bool { return r[i].Column >= col })
	if i < len(r) && r[i].Column == col {
		return r[i].Value, true
	}
	return nil, false
}

// build returns the run as a Row with every column, or only proj's
// columns when proj is set, and its size as Row.Bytes counts it. A run
// left with no column builds nil Columns.
func (r cellRun) build(proj *ProjectFilter) (Row, int64) {
	out, size, n := Row{Key: r[0].Row}, int64(len(r[0].Row)), len(r)
	if proj != nil {
		n = len(proj.Columns)
	}
	for _, c := range r {
		if proj != nil && !slices.Contains(proj.Columns, c.Column) {
			continue
		}
		if out.Columns == nil {
			out.Columns = make(map[string][]byte, n)
		}
		out.Columns[c.Column] = c.Value
		size += int64(len(c.Column) + len(c.Value))
	}
	return out, size
}

// String renders the row compactly for debugging.
func (r Row) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s{", r.Key)
	first := true
	for c, v := range r.Columns {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%s=%q", c, v)
	}
	b.WriteString("}")
	return b.String()
}
