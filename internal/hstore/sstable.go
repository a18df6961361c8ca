package hstore

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// sstable is an immutable sorted segment produced by flushing a
// region's memstore (HBase's HFile). The PST4 layout is block-oriented:
// cells are grouped into blocks of ~sstBlockSize uncompressed bytes,
// row keys are prefix-compressed within a block (profile row keys share
// long "<ftype>/<jobID>" prefixes, so this is where most of the key
// bytes go), and each block's payload is independently compressed by a
// pluggable codec — stdlib flate, or raw when compression does not pay.
// Every stored block carries a CRC32C computed at build time and
// verified every time an iterator opens the block — a flipped bit (in
// memory or on disk) surfaces as a CorruptionError, never as data.
// Iteration is lazy: a scan decompresses only the blocks its key range
// touches, one at a time, or takes them from the server's blockCache,
// and cell values alias the decoded block buffer instead of being
// copied out (zero-copy within a block).
//
// The encoded PST4 file is
//
//	blocks: concatenated per-block payloads (each possibly compressed)
//	index:  repeated [u32 rowLen | firstRow | u64 off | u64 clen |
//	                  u32 ulen | u32 cells | u32 crc32c | u8 codec]
//	bloom:  encoded bloom filter over row keys
//	footer: [u64 indexOff | u64 bloomOff | u64 rawBytes | u32 cellCount | u32 magic]
//	file:   u32 crc32c(everything before this field)
//
// The trailing whole-file checksum catches corruption anywhere in the
// encoded form at load time; the per-block CRCs keep guarding the
// in-memory payloads afterwards. PST4 is the only format: decodeSSTable
// rejects any other magic as corruption.
type sstable struct {
	id     uint64 // per-process identity, the block cache's key
	data   []byte // concatenated stored block payloads
	blocks []blockMeta
	bloom  *bloom
	count  int

	// rawBytes is the total uncompressed encoded-cell size, the
	// numerator of the block compression ratio.
	rawBytes uint64

	minRow, maxRow string
}

// blockMeta locates and describes one stored block.
type blockMeta struct {
	firstRow string
	off      uint64 // into sstable.data
	clen     uint64 // stored (possibly compressed) length
	ulen     uint32 // uncompressed length
	cells    uint32 // cells encoded in the block
	crc      uint32 // crc32c of the stored payload
	codec    byte
}

const (
	sstMagic4    = 0x50535434 // "PST4" (compressed prefix-encoded blocks)
	sstBlockSize = 4096       // target uncompressed bytes per block
	sstFooterLen = 8 + 8 + 8 + 4 + 4 + 4

	// codecMinSize is the smallest block worth offering to a real
	// codec; tiny blocks stay raw.
	codecMinSize = 64
)

// Block codecs. A codec compresses a finished block payload and restores
// it on read; the codec ID is stored per block so formats can mix
// within one file (a block that does not compress stays raw).
const (
	codecRaw   byte = 0
	codecFlate byte = 1
)

// flateWriters pools flate writers: constructing one allocates large
// match tables, far too expensive per 4KB block.
var flateWriters = sync.Pool{
	New: func() interface{} {
		w, _ := flate.NewWriter(io.Discard, flate.BestSpeed)
		return w
	},
}

// compressBlock encodes src with the best available codec, returning
// the stored payload and the codec ID. Raw wins whenever compression
// would not shrink the block.
func compressBlock(src []byte) ([]byte, byte) {
	if len(src) < codecMinSize {
		return src, codecRaw
	}
	var buf bytes.Buffer
	buf.Grow(len(src))
	w := flateWriters.Get().(*flate.Writer)
	w.Reset(&buf)
	_, werr := w.Write(src)
	cerr := w.Close()
	flateWriters.Put(w)
	if werr != nil || cerr != nil || buf.Len() >= len(src) {
		return src, codecRaw
	}
	return buf.Bytes(), codecFlate
}

// flateReader is a pooled inflater and the source it reads from. A
// fresh flate reader allocates a 32 KiB window and its Huffman tables,
// about 60 KiB, far more than the 4 KB block it inflates; Reset reuses
// them and clears every error state, corruption included.
type flateReader struct {
	src bytes.Reader
	zr  io.ReadCloser
}

func newFlateReader() *flateReader {
	fr := new(flateReader)
	fr.zr = flate.NewReader(&fr.src)
	return fr
}

var flateReaders = sync.Pool{New: func() interface{} { return newFlateReader() }}

// inflate decodes one flate payload of exactly ulen bytes into a fresh
// buffer.
func (fr *flateReader) inflate(payload []byte, ulen uint32) ([]byte, error) {
	fr.src.Reset(payload)
	if err := fr.zr.(flate.Resetter).Reset(&fr.src, nil); err != nil {
		return nil, &CorruptionError{Detail: fmt.Sprintf("sstable flate block: %v", err)}
	}
	out := make([]byte, ulen)
	if _, err := io.ReadFull(fr.zr, out); err != nil {
		return nil, &CorruptionError{Detail: fmt.Sprintf("sstable flate block: %v", err)}
	}
	var one [1]byte
	if n, _ := fr.zr.Read(one[:]); n != 0 {
		return nil, &CorruptionError{Detail: "sstable flate block has trailing data"}
	}
	return out, nil
}

// decompressBlock restores a stored payload to its uncompressed form.
// The returned buffer is freshly allocated per block and never written
// again, so cells decoded from it, and the block cache, may share it.
func decompressBlock(payload []byte, codec byte, ulen uint32) ([]byte, error) {
	switch codec {
	case codecRaw:
		if uint32(len(payload)) != ulen {
			return nil, &CorruptionError{Detail: fmt.Sprintf("sstable raw block is %d bytes, index says %d", len(payload), ulen)}
		}
		return payload, nil
	case codecFlate:
		fr := flateReaders.Get().(*flateReader)
		defer flateReaders.Put(fr)
		return fr.inflate(payload, ulen)
	default:
		return nil, &CorruptionError{Detail: fmt.Sprintf("sstable block uses unknown codec %d", codec)}
	}
}

// appendBlockEntry encodes one cell against the previous cell's row
// key (prefix compression; prevRow "" at a block start):
//
//	uvarint shared | uvarint rowSuffix | uvarint colLen | uvarint valLen
//	| uvarint ts | u8 flags | rowSuffix | col | val
func appendBlockEntry(buf []byte, c Cell, prevRow string) []byte {
	shared := 0
	max := len(prevRow)
	if len(c.Row) < max {
		max = len(c.Row)
	}
	for shared < max && c.Row[shared] == prevRow[shared] {
		shared++
	}
	var tmp [binary.MaxVarintLen64]byte
	buf = append(buf, tmp[:binary.PutUvarint(tmp[:], uint64(shared))]...)
	buf = append(buf, tmp[:binary.PutUvarint(tmp[:], uint64(len(c.Row)-shared))]...)
	buf = append(buf, tmp[:binary.PutUvarint(tmp[:], uint64(len(c.Column)))]...)
	buf = append(buf, tmp[:binary.PutUvarint(tmp[:], uint64(len(c.Value)))]...)
	buf = append(buf, tmp[:binary.PutUvarint(tmp[:], uint64(c.Ts))]...)
	var flags byte
	if c.Deleted {
		flags |= 1
	}
	buf = append(buf, flags)
	buf = append(buf, c.Row[shared:]...)
	buf = append(buf, c.Column...)
	buf = append(buf, c.Value...)
	return buf
}

// sstableIDs stamps every table built or decoded in this process.
var sstableIDs atomic.Uint64

// buildSSTable encodes sorted cells into a segment. Cells must already
// be in (row, column, ts desc) order, as memstore.Cells produces.
func buildSSTable(cells []Cell) *sstable {
	t := &sstable{id: sstableIDs.Add(1), count: len(cells), bloom: newBloom(len(cells))}
	var blockBuf []byte
	var firstRow, prevRow, lastRow string
	var nCells uint32
	finishBlock := func() {
		if nCells == 0 {
			return
		}
		payload, codec := compressBlock(blockBuf)
		m := blockMeta{
			firstRow: firstRow,
			off:      uint64(len(t.data)),
			clen:     uint64(len(payload)),
			ulen:     uint32(len(blockBuf)),
			cells:    nCells,
			crc:      crc32c(payload),
			codec:    codec,
		}
		t.data = append(t.data, payload...)
		t.blocks = append(t.blocks, m)
		t.rawBytes += uint64(len(blockBuf))
		blockBuf = blockBuf[:0]
		nCells = 0
	}
	for _, c := range cells {
		if nCells == 0 {
			// Cloned: a key read from another table slices that block's
			// shared key string, which the index must not keep alive.
			firstRow = strings.Clone(c.Row)
			prevRow = ""
		}
		blockBuf = appendBlockEntry(blockBuf, c, prevRow)
		prevRow = c.Row
		nCells++
		if c.Row != lastRow {
			t.bloom.Add(c.Row)
			lastRow = c.Row
		}
		if len(blockBuf) >= sstBlockSize {
			finishBlock()
		}
	}
	finishBlock()
	if len(cells) > 0 {
		t.minRow = t.blocks[0].firstRow
		t.maxRow = strings.Clone(cells[len(cells)-1].Row)
	}
	return t
}

// compressionRatio reports uncompressed-to-stored bytes (1.0 when the
// table is empty or nothing compressed).
func (t *sstable) compressionRatio() float64 {
	if len(t.data) == 0 || t.rawBytes == 0 {
		return 1.0
	}
	return float64(t.rawBytes) / float64(len(t.data))
}

// seekBlock returns the index of the block a scan starting at row must
// open: the last block whose first row is strictly less than row (block
// 0 if none). A block whose first row equals row may be the row's tail —
// its head cells then sit at the end of the block before — so the scan
// opens the earlier block and iterate skips forward to the row.
func (t *sstable) seekBlock(row string) int {
	i := sort.Search(len(t.blocks), func(i int) bool { return t.blocks[i].firstRow >= row })
	if i == 0 {
		return 0
	}
	return i - 1
}

// ssIter streams cells of [startRow, endRow) lazily: blocks are CRC-
// verified and opened one at a time as the iterator crosses into them.
// A block the cache already holds decoded is a slab the iterator steps
// through; any other block is decoded one cell at a time as the
// iterator reaches it, each value aliasing the block's buffer (no
// per-cell copy). A block failing its checksum or decoding impossibly
// surfaces as a CorruptionError from advance().
type ssIter struct {
	t      *sstable
	cache  *blockCache // nil: open every block afresh
	endRow string

	bi    int    // next block to open
	cells []Cell // the rest of the current block's slab
	buf   []byte // the current block, decoded from pos on
	pos   int
	left  uint32 // cells of buf not yet decoded

	// row is the current row key. Opening a block rebuilds its row keys
	// end to end into keys and copies them to one string, rows (or takes
	// that string from cache); each new row then slices rows at offset
	// to, so the iterator allocates at most once per block for its keys,
	// not once per row.
	row  string
	rows string
	keys []byte
	to   int

	// cols interns column names: a scan meets the same few names in
	// every block, and a lookup keyed by string(bytes) allocates nothing.
	cols map[string]string

	cur Cell
	ok  bool
}

// noBlocks is the table behind an iterator over cells already decoded.
var noBlocks = &sstable{}

// maxInternedCols bounds an iterator's intern map over ever-new names.
const maxInternedCols = 256

// iterate positions an iterator at the first cell with row >= startRow,
// opening blocks through cache (nil for none). The returned iterator
// already holds that cell (cur, ok) or is exhausted.
func (t *sstable) iterate(startRow, endRow string, cache *blockCache) (*ssIter, error) {
	it := &ssIter{t: t, cache: cache, endRow: endRow}
	if len(t.blocks) == 0 {
		return it, nil
	}
	it.bi = t.seekBlock(startRow)
	for {
		if err := it.advance(); err != nil {
			return nil, err
		}
		if !it.ok || it.cur.Row >= startRow {
			return it, nil
		}
	}
}

// openBlock verifies block bi's stored payload, then takes its decoded
// form from the cache or decompresses it and rebuilds its row keys. A
// block the cache holds without a slab is on its second read: it is
// decoded whole into one, which goes to the cache for every later read.
// The checksum runs on every open, hit or miss, so a flipped stored bit
// is caught even while the block's decoded form sits in the cache.
func (it *ssIter) openBlock(bi int) error {
	t := it.t
	m := t.blocks[bi]
	end := m.off + m.clen
	if end > uint64(len(t.data)) || m.off > end {
		return &CorruptionError{Detail: fmt.Sprintf("sstable block %d overruns payload area", bi)}
	}
	payload := t.data[m.off:end]
	if got := crc32c(payload); got != m.crc {
		return &CorruptionError{Detail: fmt.Sprintf("sstable block %d checksum mismatch (got %#x want %#x)", bi, got, m.crc)}
	}
	key := blockKey{table: t.id, block: bi}
	b, hit := it.cache.get(key)
	if !hit {
		buf, err := decompressBlock(payload, m.codec, m.ulen)
		if err != nil {
			return err
		}
		if b.rows, err = it.blockKeys(buf, m.cells); err != nil {
			return err
		}
		if m.codec != codecRaw {
			b.buf = buf
		}
		b.cost = int64(m.ulen) + int64(len(b.rows)) + int64(m.cells)*int64(unsafe.Sizeof(Cell{})) + blockEntryOverhead
		it.cache.add(key, b)
	}
	if b.buf == nil { // raw: read in place, or from a copy a slab may keep
		b.buf = payload
		if hit {
			b.buf = bytes.Clone(payload)
		}
	}
	it.buf, it.rows, it.to, it.pos, it.left, it.row = b.buf, b.rows, 0, 0, m.cells, ""
	if hit && b.cells == nil { // a second read: decode the block's slab
		b.cells = make([]Cell, m.cells)
		for i := range b.cells {
			if err := it.decode(&b.cells[i]); err != nil {
				return err
			}
		}
		it.cache.add(key, b)
	}
	if it.cells = b.cells; b.cells != nil {
		it.left = 0
	}
	return nil
}

// blockKeys rebuilds the row keys of a decoded block end to end into
// one string, for decode to slice from offset 0 on.
func (it *ssIter) blockKeys(buf []byte, cells uint32) (string, error) {
	keys := it.keys[:0]
	var e blockEntry
	for pos, start, n := 0, 0, uint32(0); n < cells; n++ {
		if err := e.decode(buf, pos); err != nil {
			return "", err
		}
		if prev := len(keys) - start; e.shared > prev {
			return "", entryCorrupt("shares more prefix than the previous row has", pos)
		} else if e.shared < prev || len(e.suffix) > 0 {
			k := len(keys)
			keys = append(append(keys, keys[start:start+e.shared]...), e.suffix...)
			start = k
		}
		pos = e.next
	}
	it.keys = keys
	return string(keys), nil
}

// advance moves to the next cell, exhausting cleanly at the table's end
// or at endRow.
func (it *ssIter) advance() error {
	it.ok = false
	for len(it.cells) == 0 && it.left == 0 {
		if it.bi >= len(it.t.blocks) {
			return nil
		}
		if err := it.openBlock(it.bi); err != nil {
			return err
		}
		it.bi++
	}
	if len(it.cells) > 0 {
		it.cur, it.cells = it.cells[0], it.cells[1:]
	} else if err := it.decode(&it.cur); err != nil {
		return err
	}
	if it.endRow != "" && it.cur.Row >= it.endRow {
		it.cells, it.left = nil, 0
		it.bi = len(it.t.blocks) // past endRow: every later cell is too
		return nil
	}
	it.ok = true
	return nil
}

// decode decodes buf's next cell into c.
func (it *ssIter) decode(c *Cell) error {
	var e blockEntry
	if err := e.decode(it.buf, it.pos); err != nil {
		return err
	}
	if e.shared > len(it.row) {
		return entryCorrupt("shares more prefix than the previous row has", it.pos)
	}
	if e.shared < len(it.row) || len(e.suffix) > 0 {
		n := it.to + e.shared + len(e.suffix)
		if n > len(it.rows) { // the block changed under the iterator
			return entryCorrupt("disagrees with its block's row keys", it.pos)
		}
		it.row, it.to = it.rows[it.to:n], n
	}
	it.pos = e.next
	it.left--
	*c = Cell{Row: it.row, Column: it.column(e.col), Ts: e.ts, Value: e.val, Deleted: e.deleted}
	return nil
}

// column returns the name in b, interned in a map made on first use.
func (it *ssIter) column(b []byte) string {
	if s, ok := it.cols[string(b)]; ok {
		return s
	}
	s := string(b)
	if it.cols == nil {
		it.cols = make(map[string]string)
	}
	if len(it.cols) < maxInternedCols {
		it.cols[s] = s
	}
	return s
}

// blockEntry is one prefix-compressed entry located in a block: its row
// key shares shared bytes with the previous row key and ends in suffix;
// suffix, col and val alias the block. val is capped at its length, so
// an append to a value a read returned reallocates instead of writing
// into the block.
type blockEntry struct {
	shared           int
	suffix, col, val []byte
	ts               int64
	deleted          bool
	next             int // offset of the following entry
}

// decode fills e from the entry at pos.
func (e *blockEntry) decode(buf []byte, pos int) error {
	var h [5]uint64 // shared, suffix, column and value lengths, ts
	for i := range h {
		v, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return entryCorrupt("header torn", pos)
		}
		h[i], pos = v, pos+n
	}
	if pos >= len(buf) {
		return entryCorrupt("header torn", pos)
	}
	flags := buf[pos]
	pos++
	sfx := pos + int(h[1])
	col := sfx + int(h[2])
	end := col + int(h[3])
	if sfx < pos || col < sfx || end < col || end > len(buf) || h[0] > uint64(len(buf)) {
		return entryCorrupt("overruns block", pos)
	}
	*e = blockEntry{
		shared: int(h[0]), suffix: buf[pos:sfx], col: buf[sfx:col], val: buf[col:end:end],
		ts: int64(h[4]), deleted: flags&1 != 0, next: end,
	}
	return nil
}

func entryCorrupt(what string, pos int) error {
	return &CorruptionError{Detail: fmt.Sprintf("sstable block entry %s at offset %d", what, pos)}
}

// mayContainRow consults the bloom filter and key range.
func (t *sstable) mayContainRow(row string) bool {
	if t.count == 0 || row < t.minRow || row > t.maxRow {
		return false
	}
	return t.bloom.MayContain(row)
}

// encode serializes the whole table in the PST4 layout (blocks + block
// index + bloom + footer + whole-file CRC).
func (t *sstable) encode() []byte {
	out := append([]byte(nil), t.data...)
	indexOff := uint64(len(out))
	for _, m := range t.blocks {
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(m.firstRow)))
		out = append(out, hdr[:]...)
		out = append(out, m.firstRow...)
		var fix [29]byte
		binary.LittleEndian.PutUint64(fix[0:], m.off)
		binary.LittleEndian.PutUint64(fix[8:], m.clen)
		binary.LittleEndian.PutUint32(fix[16:], m.ulen)
		binary.LittleEndian.PutUint32(fix[20:], m.cells)
		binary.LittleEndian.PutUint32(fix[24:], m.crc)
		fix[28] = m.codec
		out = append(out, fix[:]...)
	}
	bloomOff := uint64(len(out))
	out = append(out, t.bloom.encode()...)
	var footer [sstFooterLen]byte
	binary.LittleEndian.PutUint64(footer[0:], indexOff)
	binary.LittleEndian.PutUint64(footer[8:], bloomOff)
	binary.LittleEndian.PutUint64(footer[16:], t.rawBytes)
	binary.LittleEndian.PutUint32(footer[24:], uint32(t.count))
	binary.LittleEndian.PutUint32(footer[28:], sstMagic4)
	out = append(out, footer[:sstFooterLen-4]...)
	binary.LittleEndian.PutUint32(footer[sstFooterLen-4:], crc32c(out))
	return append(out, footer[sstFooterLen-4:]...)
}

// decodeSSTable parses an encoded table, verifying the whole-file
// checksum before trusting any offset in it. An image that is not PST4
// is corruption, however valid its checksum.
func decodeSSTable(raw []byte) (*sstable, error) {
	if len(raw) < sstFooterLen {
		return nil, &CorruptionError{Detail: fmt.Sprintf("sstable too short (%d bytes)", len(raw))}
	}
	fileSum := binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if got := crc32c(raw[:len(raw)-4]); got != fileSum {
		return nil, &CorruptionError{Detail: fmt.Sprintf("sstable file checksum mismatch (got %#x want %#x)", got, fileSum)}
	}
	if magic := binary.LittleEndian.Uint32(raw[len(raw)-8:]); magic != sstMagic4 {
		return nil, &CorruptionError{Detail: fmt.Sprintf("bad sstable magic %#x", magic)}
	}
	f := raw[len(raw)-sstFooterLen:]
	indexOff := binary.LittleEndian.Uint64(f[0:])
	bloomOff := binary.LittleEndian.Uint64(f[8:])
	rawBytes := binary.LittleEndian.Uint64(f[16:])
	count := binary.LittleEndian.Uint32(f[24:])
	body := uint64(len(raw) - sstFooterLen)
	if indexOff > bloomOff || bloomOff > body {
		return nil, &CorruptionError{Detail: "corrupt sstable footer offsets"}
	}
	t := &sstable{id: sstableIDs.Add(1), data: raw[:indexOff], count: int(count), rawBytes: rawBytes}
	idx := raw[indexOff:bloomOff]
	for len(idx) > 0 {
		if len(idx) < 4 {
			return nil, &CorruptionError{Detail: "corrupt sstable block index"}
		}
		rl := binary.LittleEndian.Uint32(idx)
		if uint64(len(idx)) < 4+uint64(rl)+29 {
			return nil, &CorruptionError{Detail: "corrupt sstable block index entry"}
		}
		e := idx[4+rl:]
		m := blockMeta{
			firstRow: string(idx[4 : 4+rl]),
			off:      binary.LittleEndian.Uint64(e[0:]),
			clen:     binary.LittleEndian.Uint64(e[8:]),
			ulen:     binary.LittleEndian.Uint32(e[16:]),
			cells:    binary.LittleEndian.Uint32(e[20:]),
			crc:      binary.LittleEndian.Uint32(e[24:]),
			codec:    e[28],
		}
		if m.off+m.clen > uint64(len(t.data)) {
			return nil, &CorruptionError{Detail: "sstable block index points past payload area"}
		}
		t.blocks = append(t.blocks, m)
		idx = idx[4+rl+29:]
	}
	b, err := decodeBloom(raw[bloomOff:body])
	if err != nil {
		return nil, err
	}
	t.bloom = b
	if len(t.blocks) > 0 {
		t.minRow = t.blocks[0].firstRow
		// maxRow is the last cell of the last block; decode just that
		// block rather than trusting an unverified field.
		it := &ssIter{t: t, bi: len(t.blocks) - 1}
		for {
			if err := it.advance(); err != nil {
				return nil, err
			}
			if !it.ok {
				break
			}
			t.maxRow = it.cur.Row
		}
		t.maxRow = strings.Clone(t.maxRow) // not the block's key string
	}
	return t, nil
}

// readSSTableFile loads a table SaveTo wrote.
func readSSTableFile(fsys FS, path string) (*sstable, error) {
	raw, err := fsys.ReadFile(path)
	if err != nil {
		return nil, err
	}
	t, err := decodeSSTable(raw)
	if err != nil {
		var ce *CorruptionError
		if errors.As(err, &ce) {
			ce.Path = path
		}
		return nil, err
	}
	return t, nil
}
