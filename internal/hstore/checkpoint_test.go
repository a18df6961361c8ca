package hstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// tearFS tears the first write to any file whose base name starts with
// victim: half the bytes land, then the write fails — power dying
// mid-checkpoint.
type tearFS struct {
	FS
	mu     sync.Mutex
	victim string
	torn   int
}

func (f *tearFS) OpenAppend(path string) (AppendFile, error) {
	af, err := f.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &tearFile{AppendFile: af, fs: f, name: filepath.Base(path)}, nil
}

type tearFile struct {
	AppendFile
	fs   *tearFS
	name string
}

func (a *tearFile) Write(p []byte) (int, error) {
	a.fs.mu.Lock()
	tear := a.fs.victim != "" && strings.HasPrefix(a.name, a.fs.victim) && a.fs.torn == 0 && len(p) > 1
	if tear {
		a.fs.torn++
	}
	a.fs.mu.Unlock()
	if !tear {
		return a.AppendFile.Write(p)
	}
	n, err := a.AppendFile.Write(p[:len(p)/2])
	if err == nil {
		err = errors.New("test: torn write")
	}
	return n, err
}

// TestTornCheckpointKeepsAckedRows tears one file of a second
// checkpoint — the MANIFEST, then in its own case a region's sstable.
// The checkpoint must report the failure, and reopening the directory
// must succeed with every row acked before the tear: the first
// checkpoint and the WAL behind it are still whole.
func TestTornCheckpointKeepsAckedRows(t *testing.T) {
	for _, victim := range []string{manifestName, "t-region"} {
		t.Run(victim, func(t *testing.T) {
			dir := t.TempDir()
			fsys := &tearFS{FS: OSFS}
			s, err := OpenDurableWith(dir, DurableOptions{FS: fsys})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.CreateTable("t"); err != nil {
				t.Fatal(err)
			}
			want := map[string]string{}
			put := func(from, to int) {
				for i := from; i < to; i++ {
					k, v := fmt.Sprintf("r%03d", i), fmt.Sprintf("v%d", i)
					mustPut(t, s, "t", k, "c", v)
					want[k] = v
				}
			}
			put(0, 40)
			if err := s.SaveTo(dir); err != nil {
				t.Fatal(err)
			}
			put(40, 80)
			if err := s.Delete("t", "r007", "c"); err != nil {
				t.Fatal(err)
			}
			delete(want, "r007")

			fsys.victim = victim
			if err := s.SaveTo(dir); err == nil {
				t.Fatal("a checkpoint with a torn write reported success")
			}
			if fsys.torn != 1 {
				t.Fatalf("%d writes torn, want 1", fsys.torn)
			}

			back, err := OpenDurable(dir)
			if err != nil {
				t.Fatalf("reopen after a torn checkpoint: %v", err)
			}
			if got := countRows(t, back, "t"); got != len(want) {
				t.Errorf("recovered %d rows, want %d", got, len(want))
			}
			for k, v := range want {
				r, ok, err := back.Get("t", k)
				if err != nil || !ok || string(r.Columns["c"]) != v {
					t.Fatalf("acked row %s: %q ok=%v err=%v, want %q", k, r.Columns["c"], ok, err, v)
				}
			}
			if _, ok, _ := back.Get("t", "r007"); ok {
				t.Error("deleted row came back")
			}
		})
	}
}

// eventFS records, in order, every fsync, truncate and rename the
// store asks of it, by base file name.
type eventFS struct {
	FS
	mu     sync.Mutex
	events []string
}

func (f *eventFS) note(e string) {
	f.mu.Lock()
	f.events = append(f.events, e)
	f.mu.Unlock()
}

func (f *eventFS) OpenAppend(path string) (AppendFile, error) {
	af, err := f.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &eventFile{AppendFile: af, fs: f, name: filepath.Base(path)}, nil
}

func (f *eventFS) Rename(oldpath, newpath string) error {
	f.note("rename " + filepath.Base(oldpath) + " " + filepath.Base(newpath))
	return f.FS.Rename(oldpath, newpath)
}

type eventFile struct {
	AppendFile
	fs   *eventFS
	name string
}

func (a *eventFile) Sync() error {
	a.fs.note("sync " + a.name)
	return a.AppendFile.Sync()
}

func (a *eventFile) Truncate(size int64) error {
	a.fs.note(fmt.Sprintf("truncate %s %d", a.name, size))
	return a.AppendFile.Truncate(size)
}

// TestCheckpointSyncsEveryFileBeforeWALReset: every file a checkpoint
// writes is synced and renamed into place before the WAL is emptied,
// so a power cut can never leave an empty log beside a checkpoint that
// is not on disk yet.
func TestCheckpointSyncsEveryFileBeforeWALReset(t *testing.T) {
	dir := t.TempDir()
	fsys := &eventFS{FS: OSFS}
	s, err := OpenDurableWith(dir, DurableOptions{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range []string{"a", "b"} {
		if err := s.CreateTable(tbl); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			mustPut(t, s, tbl, fmt.Sprintf("r%d", i), "c", "v")
		}
	}
	if err := s.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		if n := e.Name(); n == manifestName || strings.HasSuffix(n, ".sst") {
			files = append(files, n)
		}
	}
	if len(files) != 3 {
		t.Fatalf("checkpoint wrote %v, want a MANIFEST and two sstables", files)
	}
	ev := fsys.events
	reset := slices.IndexFunc(ev, func(e string) bool {
		return e == "rename "+walFileName+".tmp "+walFileName || e == "truncate "+walFileName+" 0"
	})
	if reset < 0 {
		t.Fatalf("the WAL was never reset: %v", ev)
	}
	for _, name := range files {
		synced := slices.Index(ev, "sync "+name+".tmp")
		renamed := slices.Index(ev, "rename "+name+".tmp "+name)
		if synced < 0 || renamed < synced || renamed > reset {
			t.Errorf("%s: synced at event %d, renamed at %d, WAL reset at %d; want sync < rename < reset in %v",
				name, synced, renamed, reset, ev)
		}
	}
	if fi, err := os.Stat(filepath.Join(dir, walFileName)); err != nil || fi.Size() != 0 {
		t.Fatalf("WAL after checkpoint: %v, err %v; want empty", fi, err)
	}
}
