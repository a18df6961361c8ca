package chaos

import (
	"fmt"
	"io/fs"
	"path/filepath"

	"pstorm/internal/hstore"
)

// FS wraps inner with the engine's file-layer faults. Fault sites are
// keyed by operation kind and base filename (not the full path), so a
// schedule replays identically across temp directories.
func (e *Engine) FS(inner hstore.FS) hstore.FS {
	return &faultFS{e: e, inner: inner}
}

type faultFS struct {
	e     *Engine
	inner hstore.FS
}

func (f *faultFS) site(op, path string) string {
	return op + ":" + filepath.Base(path)
}

// ReadFile reads through, then possibly flips one bit of the result —
// the disk rot / cosmic ray the checksums exist to catch. The flipped
// bit position is derived from the same decision hash, so it too is
// identical across same-seed runs.
func (f *faultFS) ReadFile(path string) ([]byte, error) {
	data, err := f.inner.ReadFile(path)
	if err != nil {
		return nil, err
	}
	site := f.site("read", path)
	n, h, armed := f.e.draw(site)
	if armed && hit(h, f.e.opts.ReadBitFlipProb) && len(data) > 0 {
		bit := splitmix64(h) % uint64(len(data)*8)
		data[bit/8] ^= 1 << (bit % 8)
		f.e.record(site, n, fmt.Sprintf("bitflip@%d", bit))
	}
	return data, nil
}

func (f *faultFS) MkdirAll(path string, perm fs.FileMode) error {
	return f.inner.MkdirAll(path, perm)
}

func (f *faultFS) Stat(path string) (fs.FileInfo, error) { return f.inner.Stat(path) }

func (f *faultFS) Rename(oldpath, newpath string) error { return f.inner.Rename(oldpath, newpath) }

func (f *faultFS) OpenAppend(path string) (hstore.AppendFile, error) {
	af, err := f.inner.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &faultAppend{e: f.e, inner: af, wSite: f.site("append", path), sSite: f.site("fsync", path)}, nil
}

// faultAppend injects torn writes and fsync failures into an append
// stream. The store writes every file through one — logs, and the temp
// files checkpoints are renamed from — so a torn checkpoint is a torn
// append too.
type faultAppend struct {
	e     *Engine
	inner hstore.AppendFile
	wSite string
	sSite string
}

func (a *faultAppend) Write(p []byte) (int, error) {
	n, h, armed := a.e.draw(a.wSite)
	if armed && hit(h, a.e.opts.TornWriteProb) && len(p) > 0 {
		keep := int(splitmix64(h) % uint64(len(p)))
		a.e.record(a.wSite, n, fmt.Sprintf("torn@%d", keep))
		if keep > 0 {
			if w, err := a.inner.Write(p[:keep]); err != nil {
				return w, err
			}
		}
		return keep, fmt.Errorf("chaos: torn append at %d/%d bytes: %w", keep, len(p), ErrIO)
	}
	return a.inner.Write(p)
}

func (a *faultAppend) Sync() error {
	n, h, armed := a.e.draw(a.sSite)
	if armed && hit(h, a.e.opts.FsyncErrProb) {
		a.e.record(a.sSite, n, "fsyncerr")
		return fmt.Errorf("chaos: fsync failed: %w", ErrIO)
	}
	return a.inner.Sync()
}

func (a *faultAppend) Close() error              { return a.inner.Close() }
func (a *faultAppend) Truncate(size int64) error { return a.inner.Truncate(size) }
