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
	"time"
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

// TestCheckpointKeepsWriteAckedMidSave acks a put into table a while
// SaveTo is compacting table b, after a's sstable has been written. The
// checkpoint does not cover that put, so the WAL must keep it: reopened
// from the directory, the row is there.
func TestCheckpointKeepsWriteAckedMidSave(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range []string{"a", "b"} {
		if err := s.CreateTable(tbl); err != nil {
			t.Fatal(err)
		}
		for seg := 0; seg < 2; seg++ {
			mustPut(t, s, tbl, fmt.Sprintf("r%d", seg), "c", "v")
			if err := s.Flush(tbl); err != nil {
				t.Fatal(err)
			}
		}
	}
	merges := 0
	s.stats.throttle = func(int) {
		// Tables are checkpointed in name order, one merge each: the
		// second merge is b's, after a's file is on disk.
		if merges++; merges == 2 {
			mustPut(t, s, "a", "mid", "c", "acked")
		}
	}
	if err := s.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	if merges != 2 {
		t.Fatalf("setup: %d compaction merges, want 2", merges)
	}
	back, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r, ok, err := back.Get("a", "mid"); err != nil || !ok || string(r.Columns["c"]) != "acked" {
		t.Fatalf("row acked mid-checkpoint after reopen = %v (ok=%v err=%v)", r, ok, err)
	}
}

// hookFS calls before just ahead of the first rename onto a MANIFEST,
// and after just behind it.
type hookFS struct {
	FS
	before, after func()
}

func (f *hookFS) Rename(oldpath, newpath string) error {
	manifest := filepath.Base(newpath) == manifestName
	if hook := f.before; hook != nil && manifest {
		f.before = nil
		hook()
	}
	err := f.FS.Rename(oldpath, newpath)
	if hook := f.after; hook != nil && err == nil && manifest {
		f.after = nil
		hook()
	}
	return err
}

// TestOverlappingSaveToBothSucceed starts a second SaveTo into the same
// directory just before the first renames its MANIFEST into place, and
// gives it time to finish. Checkpoints run one at a time, so the second
// waits rather than renaming the first's MANIFEST temp file from under
// it: both succeed, and reopened, every acked row is there.
func TestOverlappingSaveToBothSucceed(t *testing.T) {
	dir := t.TempDir()
	fsys := &hookFS{FS: OSFS}
	s, err := OpenDurableWith(dir, DurableOptions{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	put := func(k, v string) {
		mustPut(t, s, "t", k, "c", v)
		want[k] = v
	}
	for i := 0; i < 20; i++ {
		put(fmt.Sprintf("a%02d", i), "v")
	}
	second := make(chan error, 1)
	fsys.before = func() {
		put("b0", "v")
		go func() { second <- s.SaveTo(dir) }()
		// Give the second SaveTo time to finish if nothing holds it back.
		select {
		case err := <-second:
			second <- err
		case <-time.After(100 * time.Millisecond):
		}
	}
	if err := s.SaveTo(dir); err != nil {
		t.Fatalf("first SaveTo: %v", err)
	}
	if err := <-second; err != nil {
		t.Fatalf("second SaveTo: %v", err)
	}
	back, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range want {
		if r, ok, err := back.Get("t", k); err != nil || !ok || string(r.Columns["c"]) != v {
			t.Fatalf("acked row %s after reopen = %v (ok=%v err=%v)", k, r, ok, err)
		}
	}
}

// TestOverlappingCheckpointsKeepAckedRows starts a second SaveTo just
// after the first's MANIFEST lands, with puts before and after it
// starts: the second waits for the first, which must keep the frames
// past its mark, and then checkpoints them. Reopened, every acked row
// is there.
func TestOverlappingCheckpointsKeepAckedRows(t *testing.T) {
	dir := t.TempDir()
	fsys := &hookFS{FS: OSFS}
	s, err := OpenDurableWith(dir, DurableOptions{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	put := func(k, v string) {
		mustPut(t, s, "t", k, "c", v)
		want[k] = v
	}
	// Long values before the first mark, short ones after it, so the
	// first mark is no multiple of the later frames' size.
	for i := 0; i < 3; i++ {
		put(fmt.Sprintf("a%d", i), strings.Repeat("x", 37))
	}
	second := make(chan error, 1)
	fsys.after = func() {
		put("b0", "v")
		go func() { second <- s.SaveTo(dir) }()
		for i := 1; i < 40; i++ {
			put(fmt.Sprintf("b%02d", i), "v")
		}
	}
	if err := s.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	if err := <-second; err != nil {
		t.Fatal(err)
	}
	back, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range want {
		if r, ok, err := back.Get("t", k); err != nil || !ok || string(r.Columns["c"]) != v {
			t.Fatalf("acked row %s after reopen = %v (ok=%v err=%v)", k, r, ok, err)
		}
	}
}

// TestCheckpointMarkWaitsForLoggedWrite parks a put after its WAL
// append, before its memstore insert, and starts SaveTo meanwhile. The
// checkpoint's mark must wait for the put: taken at once, it would
// cover the put's frame while the compaction misses the row, and the
// row would be gone after reopen.
func TestCheckpointMarkWaitsForLoggedWrite(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable("a"); err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, "a", "r0", "c", "v")
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	s.logged = func() {
		once.Do(func() {
			close(parked)
			<-release
		})
	}
	putDone := make(chan error, 1)
	go func() { putDone <- s.Put("a", "mid", "c", []byte("acked")) }()
	<-parked
	saved := make(chan error, 1)
	go func() { saved <- s.SaveTo(dir) }()
	// Give SaveTo time to finish if its mark does not wait for the put.
	select {
	case err := <-saved:
		saved <- err
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-putDone; err != nil {
		t.Fatal(err)
	}
	if err := <-saved; err != nil {
		t.Fatal(err)
	}
	back, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r, ok, err := back.Get("a", "mid"); err != nil || !ok || string(r.Columns["c"]) != "acked" {
		t.Fatalf("row logged before the mark, after reopen = %v (ok=%v err=%v)", r, ok, err)
	}
}
