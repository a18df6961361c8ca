package hstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
)

// Durable files. Everything the store keeps on disk is one of two
// kinds, and this file is the one place either is written:
//
//   - a Log, an append-only sequence of framed records: the region
//     server's WAL (wal.go) and the dstore master's META journal;
//   - a whole-file image (an sstable, the MANIFEST, a compacted log),
//     replaced by replaceFile so its path holds either the old or the
//     complete new contents, never a torn mix.
//
// Frame layout (little endian) — also the wire format of the META image
// masters push to each other:
//
//	u32 payloadLen
//	u32 crc32c(payload)
//	payload
//
// Replay verifies every frame and stops at the first torn or corrupt
// one; opening a Log truncates the file there, so garbage is neither
// replayed nor appended after. A crash mid-append loses at most the
// record being written; a flipped bit loses the records behind it but
// is detected, never read back as truth.

// FrameHeader is the per-record framing overhead: length + CRC.
const FrameHeader = 8

// Frame returns payload framed as one record.
func Frame(payload []byte) []byte {
	return sealFrame(append(make([]byte, FrameHeader, FrameHeader+len(payload)), payload...))
}

// sealFrame fills in the header of buf, which holds FrameHeader
// reserved bytes and then the payload, so a codec can encode a record
// straight into its frame.
func sealFrame(buf []byte) []byte {
	p := buf[FrameHeader:]
	binary.LittleEndian.PutUint32(buf[0:], uint32(len(p)))
	binary.LittleEndian.PutUint32(buf[4:], crc32c(p))
	return buf
}

// errTornFrame reports that the bytes end inside a frame: a torn
// write, or a corrupt length field — the two are indistinguishable.
var errTornFrame = errors.New("hstore: torn frame")

// DecodeFrame returns the verified payload of the frame at the head of
// raw and the frame's length. It fails with errTornFrame when raw ends
// inside the frame and with a *CorruptionError on a checksum mismatch.
func DecodeFrame(raw []byte) (payload []byte, size int, err error) {
	if len(raw) < FrameHeader {
		return nil, 0, errTornFrame
	}
	n := binary.LittleEndian.Uint32(raw)
	if uint64(n) > uint64(len(raw)-FrameHeader) {
		return nil, 0, errTornFrame
	}
	p := raw[FrameHeader : FrameHeader+int(n)]
	if got, want := crc32c(p), binary.LittleEndian.Uint32(raw[4:]); got != want {
		return nil, 0, &CorruptionError{Detail: fmt.Sprintf("frame checksum mismatch (got %#x want %#x)", got, want)}
	}
	return p, FrameHeader + int(n), nil
}

// ReplayLog hands apply each verified payload of raw, in order, and
// returns the clean prefix length: where a torn tail, a corrupt frame,
// or the first payload apply rejects begins. err is nil at a clean end
// or a torn tail; otherwise it is the CorruptionError or apply's error.
func ReplayLog(raw []byte, apply func(payload []byte) error) (clean int64, err error) {
	for off := 0; off < len(raw); {
		p, n, err := DecodeFrame(raw[off:])
		if err == nil {
			err = apply(p)
		}
		if errors.Is(err, errTornFrame) {
			return int64(off), nil
		}
		if err != nil {
			return int64(off), err
		}
		off += n
	}
	return int64(len(raw)), nil
}

// Log is an append-only file of framed records. Its lock is a leaf.
type Log struct {
	mu   sync.Mutex
	fs   FS
	path string
	f    AppendFile
	sync bool
	// size is the last known-good frame boundary, so a failed append
	// can be rolled back: a record landing after garbage would be lost
	// at replay, which stops at the first bad frame.
	size int64
	// broken latches the log read-only once its tail is unknown or closed.
	broken error
}

// OpenLog opens (or creates) the log at path, first handing apply every
// verified record in it (see ReplayLog). The unrecoverable tail — torn,
// corrupt, or a record apply rejected with a CorruptionError — is
// truncated before appends are re-armed. discarded is its length when
// the stop was corruption rather than a torn write: those bytes may
// have held valid, fresher records, and the caller must say so. Any
// other error from apply fails the open and leaves the file untouched.
// With syncEvery, every Append is fsynced before it returns.
func OpenLog(fsys FS, path string, syncEvery bool, apply func(payload []byte) error) (l *Log, discarded int64, err error) {
	raw, err := fsys.ReadFile(path)
	if err != nil && !isNotExist(err) {
		return nil, 0, err
	}
	clean, err := ReplayLog(raw, apply)
	if err != nil && !IsCorruption(err) {
		return nil, 0, err
	}
	if err != nil {
		discarded = int64(len(raw)) - clean
	}
	f, err := fsys.OpenAppend(path)
	if err != nil {
		return nil, 0, err
	}
	if int64(len(raw)) > clean {
		if err := f.Truncate(clean); err != nil {
			f.Close() //nolint:errcheck — the truncate failure is the interesting one
			return nil, 0, err
		}
	}
	return &Log{fs: fsys, path: path, f: f, sync: syncEvery, size: clean}, discarded, nil
}

// Append writes one frame (built by Frame or sealFrame), fsyncing it
// when the log syncs. A failed write or sync is rolled back to the last
// good boundary, so the refused record cannot come back at replay and
// the next one lands clean; if the rollback fails too, the log latches
// broken and refuses every later append.
func (l *Log) Append(frame []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return l.broken
	}
	_, err := l.f.Write(frame)
	if err == nil && l.sync {
		err = l.f.Sync()
	}
	if err != nil {
		if terr := l.f.Truncate(l.size); terr != nil {
			l.broken = fmt.Errorf("hstore: %s unwritable after failed rollback: %w", filepath.Base(l.path), terr)
		}
		return err
	}
	l.size += int64(len(frame))
	return nil
}

// Rewrite replaces the whole log with data (zero or more frames)
// through replaceFile and re-arms appends on the new file. A failure
// before the rename leaves the log as it was; one after it latches the
// log broken, since the append handle no longer reaches the live file.
func (l *Log) Rewrite(data []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rewriteLocked(data)
}

// DropBefore rewrites the log without its first off bytes — records a
// checkpoint now covers — keeping every frame appended since, and fails
// as Rewrite does. off is a Size the caller read, and no rewrite may
// run in between (SaveTo, the WAL's one rewriter, runs one at a time).
// It reads and replaces under the lock, so no append lands in between.
func (l *Log) DropBefore(off int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var rest []byte
	if off < l.size {
		raw, err := l.fs.ReadFile(l.path)
		if err != nil {
			return err
		}
		rest = raw[off:l.size]
	}
	return l.rewriteLocked(rest)
}

func (l *Log) rewriteLocked(data []byte) error {
	if l.broken != nil {
		return l.broken
	}
	if err := replaceFile(l.fs, l.path, data); err != nil {
		return err
	}
	f, err := l.fs.OpenAppend(l.path)
	if err != nil {
		l.broken = fmt.Errorf("hstore: %s unreachable after rewrite: %w", filepath.Base(l.path), err)
		return l.broken
	}
	l.f.Close() //nolint:errcheck — the old inode is already unlinked
	l.f, l.size = f, int64(len(data))
	return nil
}

// Size returns the log's length in bytes up to its last good frame.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// errLogClosed refuses every append and rewrite after Close.
var errLogClosed = errors.New("hstore: log closed")

// Close releases the file handle. A second Close is a no-op.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken == errLogClosed {
		return nil
	}
	l.broken = errLogClosed
	return l.f.Close()
}

// replaceFile replaces path with data crash-safely: data is written to
// path+".tmp", synced, and renamed over path.
func replaceFile(fsys FS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fsys.OpenAppend(tmp)
	if err != nil {
		return err
	}
	// A stale temp from an earlier crashed replace may linger.
	err = f.Truncate(0)
	if err == nil {
		_, err = f.Write(data)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return fsys.Rename(tmp, path)
}
