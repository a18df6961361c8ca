package pstorm_test

import (
	"fmt"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"pstorm"
	"pstorm/internal/dstore"
)

// startStoreCluster starts a pstormd-shaped cluster: a master and n
// region servers, each on its own HTTP listener, the profile table
// split at the default keys. It returns the master, its URL for
// Options.MasterURL, and kill, which stops every region server and its
// listener as a chaos kill would. Cleanup kills them too, then stops
// the master.
func startStoreCluster(t *testing.T, n int) (m *dstore.Master, masterURL string, kill func()) {
	t.Helper()
	m = dstore.NewMaster(dstore.NewRegistry(), dstore.MasterOptions{DefaultSplits: dstore.DefaultSplits})
	masterSrv := httptest.NewServer(dstore.MasterHandler(m))
	var stops []func()
	var once sync.Once
	kill = func() {
		once.Do(func() {
			for _, stop := range stops {
				stop()
			}
		})
	}
	t.Cleanup(func() {
		kill()
		masterSrv.Close()
		m.Close()
	})
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("rs-%d", i)
		rs := dstore.NewRegionServer(id, dstore.NewRegistry())
		regionSrv := httptest.NewServer(dstore.RegionServerHandler(rs))
		stops = append(stops, func() {
			regionSrv.Close()
			rs.Stop()
		})
		if err := dstore.DialMaster(masterSrv.URL, 0).Join(dstore.Peer{ID: id, Addr: regionSrv.URL}); err != nil {
			t.Fatalf("join %s: %v", id, err)
		}
	}
	return m, masterSrv.URL, kill
}

// TestMasterURLBackend reaches the profile store the only remote way
// there is: a pstormd cluster named by Options.MasterURL, which
// excludes DataDir. A profile stored by one client must load back,
// identical, through a second client opened later.
func TestMasterURLBackend(t *testing.T) {
	_, url, _ := startStoreCluster(t, 2)

	// MasterURL and DataDir name the two deployments; a System runs on one.
	if _, err := pstorm.Open(pstorm.Options{MasterURL: url, DataDir: t.TempDir()}); err == nil {
		t.Fatal("Open accepted MasterURL together with DataDir")
	}
	sys, err := pstorm.Open(pstorm.Options{Seed: 42, MasterURL: url})
	if err != nil {
		t.Fatal(err)
	}
	first, err := sys.Submit(pstorm.WordCount(), mustDS(t, "randomtext-1g"))
	if err != nil {
		t.Fatal(err)
	}
	if !first.ProfileStored {
		t.Fatalf("first submission: %s", pstorm.Describe(first))
	}
	stored, err := sys.LoadProfile(first.StoredProfileID)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	again, err := pstorm.Open(pstorm.Options{Seed: 43, MasterURL: url})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	ids, err := again.StoredProfiles()
	if err != nil || len(ids) != 1 || ids[0] != first.StoredProfileID {
		t.Fatalf("reopened client lists %v (%v), want [%s]", ids, err, first.StoredProfileID)
	}
	back, err := again.LoadProfile(first.StoredProfileID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, stored) {
		t.Errorf("profile changed across clients:\n got %+v\nwant %+v", back, stored)
	}
}

// TestStoreServersBackend runs the quickstart flow against a profile
// store sharded over three region servers instead of a single hstore:
// submit once profiled, then watch the second submission get tuned
// from the sharded store.
func TestStoreServersBackend(t *testing.T) {
	m, url, _ := startStoreCluster(t, 3)
	sys, err := pstorm.Open(pstorm.Options{Seed: 42, MasterURL: url})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	job := pstorm.CoOccurrencePairs(2)
	ds := mustDS(t, "randomtext-1g")
	first, err := sys.Submit(job, ds)
	if err != nil {
		t.Fatal(err)
	}
	if first.Tuned || !first.ProfileStored {
		t.Fatalf("first submission: %s", pstorm.Describe(first))
	}
	second, err := sys.Submit(job, ds)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Tuned {
		t.Fatalf("second submission not tuned: %s", pstorm.Describe(second))
	}
	// The routing client's metrics are the store's part of the snapshot;
	// the servers export their own.
	if snap := sys.Snapshot(); !hasMetric(snap, "dstore_client_") || !hasMetric(snap, "matcher_match_total") {
		t.Errorf("MasterURL snapshot lacks client or matcher metrics: %v", metricNames(snap))
	}
	// The profile rows live sharded across region servers: more than
	// one server holds primaries.
	withPrimaries := 0
	for _, s := range m.Status() {
		if s.Primaries > 0 {
			withPrimaries++
		}
	}
	if withPrimaries < 2 {
		t.Fatalf("profile table not sharded: %+v", m.Status())
	}
}
