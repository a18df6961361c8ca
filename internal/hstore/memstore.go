package hstore

import "math/rand"

// memStore is the mutable in-memory write buffer of a region: a skip
// list ordered by (row, column, ts desc), as in HBase's MemStore.
// Methods are not synchronized; the owning region serializes access.
type memStore struct {
	head  *skipNode
	level int
	size  int64 // approximate bytes
	count int
	rng   *rand.Rand
}

const maxSkipLevel = 16

type skipNode struct {
	cell Cell
	next [maxSkipLevel]*skipNode
}

func newMemStore(seed int64) *memStore {
	return &memStore{
		head:  &skipNode{},
		level: 1,
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// Put inserts a cell; an existing cell with the same (row, column, ts)
// is overwritten in place, tombstone flag included.
func (m *memStore) Put(c Cell) {
	var update [maxSkipLevel]*skipNode
	x := m.head
	for i := m.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].cell.less(c) {
			x = x.next[i]
		}
		update[i] = x
	}
	if n := update[0].next[0]; n != nil &&
		n.cell.Row == c.Row && n.cell.Column == c.Column && n.cell.Ts == c.Ts {
		m.size += int64(len(c.Value) - len(n.cell.Value))
		n.cell.Value, n.cell.Deleted = c.Value, c.Deleted
		return
	}
	lvl := 1
	for lvl < maxSkipLevel && m.rng.Intn(4) == 0 {
		lvl++
	}
	if lvl > m.level {
		for i := m.level; i < lvl; i++ {
			update[i] = m.head
		}
		m.level = lvl
	}
	node := &skipNode{cell: c}
	for i := 0; i < lvl; i++ {
		node.next[i] = update[i].next[i]
		update[i].next[i] = node
	}
	m.size += int64(len(c.Row) + len(c.Column) + len(c.Value) + 16)
	m.count++
}

// Len returns the number of cells.
func (m *memStore) Len() int { return m.count }

// SizeBytes returns the approximate memory footprint.
func (m *memStore) SizeBytes() int64 { return m.size }

// Cells returns all cells in sorted order.
func (m *memStore) Cells() []Cell {
	out := make([]Cell, 0, m.count)
	for n := m.head.next[0]; n != nil; n = n.next[0] {
		out = append(out, n.cell)
	}
	return out
}

// seek returns the first node whose cell is >= the given (row, column)
// prefix at any timestamp.
func (m *memStore) seek(row, column string) *skipNode {
	probe := Cell{Row: row, Column: column, Ts: 1<<63 - 1}
	x := m.head
	for i := m.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].cell.less(probe) {
			x = x.next[i]
		}
	}
	return x.next[0]
}

// scanRange streams cells with startRow <= row < endRow (endRow ""
// means unbounded) to fn; fn returning false stops the scan.
func (m *memStore) scanRange(startRow, endRow string, fn func(Cell) bool) {
	for n := m.seek(startRow, ""); n != nil; n = n.next[0] {
		if endRow != "" && n.cell.Row >= endRow {
			return
		}
		if !fn(n.cell) {
			return
		}
	}
}
