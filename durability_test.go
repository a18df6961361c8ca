package pstorm_test

import (
	"reflect"
	"testing"

	"pstorm"
)

// TestCheckpointAndReopen: a PStorM deployment accumulates profiles
// over months; the store must survive daemon restarts.
func TestCheckpointAndReopen(t *testing.T) {
	dir := t.TempDir()

	sys1, err := pstorm.Open(pstorm.Options{Seed: 42, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	job := pstorm.Sort()
	ds, _ := pstorm.DatasetByName("tera-1g")
	if _, err := sys1.CollectAndStore(job, ds); err != nil {
		t.Fatal(err)
	}
	if _, err := sys1.CollectAndStore(pstorm.WordCount(), mustDS(t, "randomtext-1g")); err != nil {
		t.Fatal(err)
	}
	if _, err := sys1.CollectAndStore(pstorm.Join(), mustDS(t, "tpch-1g")); err != nil {
		t.Fatal(err)
	}
	if err := sys1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := sys1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh System over the same directory sees the
	// profiles and can match against them immediately.
	sys2, err := pstorm.Open(pstorm.Options{Seed: 43, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	ids, err := sys2.StoredProfiles()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("reopened store has %v", ids)
	}
	res, err := sys2.Match(job, ds)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Matched() {
		t.Errorf("matching against the reopened store failed: %+v", res.MapReport)
	}
	p, err := sys2.LoadProfile(ids[0])
	if err != nil || p.JobName == "" {
		t.Fatalf("profile blob did not survive the restart: %v", err)
	}
}

// TestCloseRefusesLaterWrites: Close releases a durable System's
// write-ahead log, and a second Close is a no-op. A profile stored
// after Close is refused, so it is never acked; a reopen of the
// directory sees exactly the profile stored before.
func TestCloseRefusesLaterWrites(t *testing.T) {
	dir := t.TempDir()
	sys1, err := pstorm.Open(pstorm.Options{Seed: 42, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	stored, err := sys1.CollectAndStore(pstorm.Sort(), mustDS(t, "tera-1g"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := sys1.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
	if _, err := sys1.CollectAndStore(pstorm.WordCount(), mustDS(t, "randomtext-1g")); err == nil {
		t.Fatal("a profile stored after Close was acked")
	}

	sys2, err := pstorm.Open(pstorm.Options{Seed: 43, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	ids, err := sys2.StoredProfiles()
	if err != nil || len(ids) != 1 || ids[0] != stored.JobID {
		t.Fatalf("reopened store lists %v (%v), want [%s]", ids, err, stored.JobID)
	}
	back, err := sys2.LoadProfile(stored.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, stored) {
		t.Errorf("profile changed across Close and reopen:\n got %+v\nwant %+v", back, stored)
	}
}

func TestCheckpointRequiresDataDir(t *testing.T) {
	sys, err := pstorm.Open(pstorm.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Checkpoint(); err == nil {
		t.Error("Checkpoint without DataDir should fail")
	}
}

// TestWALDurabilityWithoutCheckpoint: with DataDir set, profiles
// survive a restart even if nobody called Checkpoint — the write-ahead
// log carries them.
func TestWALDurabilityWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	sys1, err := pstorm.Open(pstorm.Options{Seed: 42, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys1.CollectAndStore(pstorm.Sort(), mustDS(t, "tera-1g")); err != nil {
		t.Fatal(err)
	}
	// No Checkpoint. Close, and reopen.
	if err := sys1.Close(); err != nil {
		t.Fatal(err)
	}
	sys2, err := pstorm.Open(pstorm.Options{Seed: 43, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	ids, err := sys2.StoredProfiles()
	if err != nil || len(ids) != 1 {
		t.Fatalf("WAL recovery lost the profile: %v (%v)", ids, err)
	}
}
