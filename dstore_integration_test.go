package pstorm_test

import (
	"net/http/httptest"
	"reflect"
	"testing"

	"pstorm"
	"pstorm/internal/dstore"
)

// TestStoreServersBackend runs the quickstart flow against a profile
// store backed by an in-process dstore cluster (3 region servers,
// replication 2) instead of a single hstore: submit once profiled, then
// watch the second submission get tuned from the replicated store.
func TestStoreServersBackend(t *testing.T) {
	sys, err := pstorm.Open(pstorm.Options{Seed: 42, StoreServers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if sys.StoreCluster() == nil {
		t.Fatal("StoreCluster() is nil for a StoreServers system")
	}

	job := pstorm.CoOccurrencePairs(2)
	ds, err := pstorm.DatasetByName("randomtext-1g")
	if err != nil {
		t.Fatal(err)
	}
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

	// The profile rows live sharded across region servers; the cluster
	// must report more than one server holding primaries.
	status := sys.StoreCluster().Master.Status()
	withPrimaries := 0
	for _, s := range status {
		if s.Primaries > 0 {
			withPrimaries++
		}
	}
	if withPrimaries < 2 {
		t.Fatalf("profile table not sharded: %+v", status)
	}
}

// TestMasterURLBackend reaches the profile store the only remote way
// there is: a pstormd-shaped cluster (here the degenerate one — a
// master and a single region server, each on its own HTTP listener)
// named by Options.MasterURL. A profile stored by one client must load
// back, identical, through a second client opened later.
func TestMasterURLBackend(t *testing.T) {
	m := dstore.NewMaster(dstore.NewRegistry(), dstore.MasterOptions{})
	masterSrv := httptest.NewServer(dstore.MasterHandler(m))
	defer masterSrv.Close()
	rs := dstore.NewRegionServer("rs-0", dstore.NewRegistry())
	regionSrv := httptest.NewServer(dstore.RegionServerHandler(rs))
	defer regionSrv.Close()
	if err := dstore.DialMaster(masterSrv.URL, 0).Join(dstore.Peer{ID: "rs-0", Addr: regionSrv.URL}); err != nil {
		t.Fatalf("join: %v", err)
	}

	sys, err := pstorm.Open(pstorm.Options{Seed: 42, MasterURL: masterSrv.URL})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := pstorm.DatasetByName("randomtext-1g")
	if err != nil {
		t.Fatal(err)
	}
	first, err := sys.Submit(pstorm.WordCount(), ds)
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
	sys.Close()

	again, err := pstorm.Open(pstorm.Options{Seed: 43, MasterURL: masterSrv.URL})
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
