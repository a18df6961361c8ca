package hstore

import (
	"errors"
	"io"
	"io/fs"
	"os"
)

// FS abstracts the handful of filesystem operations the durable store
// performs, so fault-injection harnesses (internal/chaos) can interpose
// bit flips, torn writes, and fsync failures without touching the real
// disk paths. The zero default (OSFS) is the operating system.
type FS interface {
	ReadFile(path string) ([]byte, error)
	MkdirAll(path string, perm fs.FileMode) error
	Stat(path string) (fs.FileInfo, error)
	// OpenAppend opens (creating if needed) a file for appending —
	// every write the store makes goes through one (log.go).
	OpenAppend(path string) (AppendFile, error)
	// Rename atomically replaces newpath with oldpath: the commit point
	// of replaceFile, by which checkpoint files and log rewrites land.
	Rename(oldpath, newpath string) error
}

// AppendFile is an append-only log file handle.
type AppendFile interface {
	io.Writer
	io.Closer
	// Sync flushes written data to stable storage.
	Sync() error
	// Truncate cuts the file to size bytes; subsequent writes append
	// after the cut.
	Truncate(size int64) error
}

// OSFS is the real filesystem.
var OSFS FS = osFS{}

type osFS struct{}

func (osFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) Stat(path string) (fs.FileInfo, error) { return os.Stat(path) }

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) OpenAppend(path string) (AppendFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return osAppendFile{f}, nil
}

type osAppendFile struct{ f *os.File }

func (a osAppendFile) Write(p []byte) (int, error) { return a.f.Write(p) }
func (a osAppendFile) Sync() error                 { return a.f.Sync() }
func (a osAppendFile) Close() error                { return a.f.Close() }

func (a osAppendFile) Truncate(size int64) error {
	if err := a.f.Truncate(size); err != nil {
		return err
	}
	// O_APPEND writes ignore the offset, but keep it coherent for
	// anyone inspecting the handle.
	_, err := a.f.Seek(size, io.SeekStart)
	return err
}

// isNotExist reports a missing file/directory, seeing through wrapping.
func isNotExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }

// fsys returns the server's filesystem, defaulting to the OS.
func (s *Server) fsys() FS {
	if s.fs != nil {
		return s.fs
	}
	return OSFS
}
