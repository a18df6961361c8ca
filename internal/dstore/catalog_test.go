package dstore

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestEveryImageChangeIsOneCommit scripts every kind of catalog
// mutation — joins, a create, a quarantine rebuild, a full move, a
// death with failover and repair, a rejoin and a promotion — and checks
// that each one is exactly one commit: every step leaves a new version,
// after every public call the held image is the leader's catalog, and
// in both masters' journals the records are strictly epoch-increasing
// and no two consecutive images differ only in Epoch.
func TestEveryImageChangeIsOneCommit(t *testing.T) {
	clock := newTestClock()
	reg := NewRegistry()
	peers := []Peer{{ID: "m-0"}, {ID: "m-1"}}
	live := map[string]*Master{}
	dirs := map[string]string{}
	for _, id := range []string{"m-0", "m-1"} {
		dirs[id] = t.TempDir()
		m, err := OpenMaster(reg, MasterOptions{
			ID: id, Peers: peers, Standby: id != "m-0", Replication: 2, DefaultSplits: []string{"m"},
			HeartbeatTimeout: 2 * time.Second, LeaseDuration: 4 * time.Second, Now: clock.now,
			JournalDir:   dirs[id],
			PeerResolver: func(p Peer) (MasterPeerConn, error) { return livePeer{p.ID, live}, nil },
		})
		if err != nil {
			t.Fatalf("OpenMaster(%s): %v", id, err)
		}
		t.Cleanup(m.Close)
		live[id] = m
	}
	leader := live["m-0"]
	tick := func() {
		for _, id := range []string{"m-0", "m-1"} {
			live[id].ElectionTick(clock.t)
		}
	}
	last := int64(0)
	step := func(name string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		leader.mu.Lock()
		cat, _ := json.Marshal(leader.cat)
		held, _ := json.Marshal(leader.journal.image())
		leader.mu.Unlock()
		if !bytes.Equal(cat, held) {
			t.Fatalf("%s: held image is not the leader's catalog:\n held: %s\n cat:  %s", name, held, cat)
		}
		if e := leader.Epoch(); e <= last {
			t.Fatalf("%s: epoch %d after %d, want a new version", name, e, last)
		} else {
			last = e
		}
	}
	tick()

	servers := map[string]*RegionServer{}
	for _, id := range []string{"rs-0", "rs-1", "rs-2"} {
		servers[id] = NewRegionServer(id, reg)
		step("join "+id, leader.Join(Peer{ID: id}))
	}
	step("create", leader.CreateTable("t"))
	ctx := context.Background()
	cl := NewClient(ConnectMaster(leader), reg)
	for i := 0; i < 10; i++ {
		if err := cl.Put(ctx, "t", fmt.Sprintf("k%02d", i), "c", []byte("v")); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := cl.Flush("t"); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	g := leader.Meta().Tables["t"][0]
	hs := servers[g.Primary].HStore()
	if !hs.CorruptRegionData("t", g.ID, 1000) {
		t.Fatal("CorruptRegionData found nothing to damage")
	}
	hs.Get("t", "k00") //nolint:errcheck — the read trips the checksum and quarantines the copy
	if n := leader.CheckHealth(); n != 1 {
		t.Fatalf("CheckHealth rebuilt %d copies, want 1", n)
	}
	step("quarantine rebuild", nil)

	g = leader.Meta().Tables["t"][1]
	away := ""
	for id := range servers {
		if id != g.Primary && id != g.Followers[0] {
			away = id
		}
	}
	_, err := leader.MoveRegion("t", g.ID, away)
	step("full move", err)

	servers["rs-0"].Stop()
	clock.advance(3 * time.Second)
	tick()
	for _, id := range []string{"rs-1", "rs-2"} {
		if err := leader.Heartbeat(id); err != nil {
			t.Fatalf("Heartbeat(%s): %v", id, err)
		}
	}
	if dead := leader.CheckLiveness(clock.t); len(dead) != 1 {
		t.Fatalf("CheckLiveness = %v, want one death", dead)
	}
	step("death", nil)

	NewRegionServer("rs-0", reg)
	step("rejoin", leader.Join(Peer{ID: "rs-0"}))

	leader.Stop()
	clock.advance(5 * time.Second)
	live["m-1"].ElectionTick(clock.t)
	if leader = live["m-1"]; !leader.IsLeader() {
		t.Fatal("m-1 did not promote after the leader died")
	}
	step("promote", nil)

	for id, dir := range dirs {
		raw, err := os.ReadFile(filepath.Join(dir, metaJournalFile))
		if err != nil {
			t.Fatalf("read %s journal: %v", id, err)
		}
		_, states := frameBounds(t, raw)
		for i := 1; i < len(states); i++ {
			prev, cur := states[i-1], states[i]
			if cur.Epoch <= prev.Epoch {
				t.Errorf("%s record %d: epoch %d after %d", id, i, cur.Epoch, prev.Epoch)
			}
			if cur.sameAs(&prev) {
				t.Errorf("%s record %d: image equals record %d outside Epoch", id, i, i-1)
			}
		}
	}
}

// TestStandbyMetaServesPushedImage: a standby serves the image the
// leader pushed it as soon as the push lands — no tick of its own in
// between.
func TestStandbyMetaServesPushedImage(t *testing.T) {
	c, clock := startHACluster(t, 3, nil)
	leader := c.MasterByID("m-0")
	leader.ElectionTick(clock.t) // the leader learns its standbys are alive
	if err := c.Client().CreateTable(context.Background(), "late"); err != nil {
		t.Fatalf("CreateTable(late): %v", err)
	}
	for _, id := range []string{"m-1", "m-2"} {
		got := c.MasterByID(id).Meta()
		if got.Epoch != leader.Epoch() || len(got.Tables["t"]) == 0 || len(got.Tables["late"]) == 0 {
			t.Fatalf("standby %s serves epoch %d tables %v; leader is at epoch %d", id, got.Epoch, got.Tables, leader.Epoch())
		}
	}
}

// pushDropper fails every image push to master id while *drop names it.
type pushDropper struct {
	MasterPeerConn
	id   string
	drop *string
}

func (c pushDropper) PushImage(from string, img MetaImage) error {
	if *c.drop == c.id {
		return fmt.Errorf("test: push to %s lost: %w", c.id, errTransport)
	}
	return c.MasterPeerConn.PushImage(from, img)
}

// TestElectionPrefersFreshestImage: the leader's last push reaches
// standby A but misses B, which outranks A, and then the leader dies.
// An election by rank alone would crown B and lose the acked mutation;
// B must defer to A, which holds the newer image.
func TestElectionPrefersFreshestImage(t *testing.T) {
	clock := newTestClock()
	drop := ""
	c, err := StartLocalCluster(LocalOptions{
		Servers: 3, Replication: 2, Splits: []string{"m"}, Masters: 3,
		HeartbeatTimeout: 2 * time.Second, LeaseDuration: 4 * time.Second, Now: clock.now,
		WrapPeerConn: func(id string, conn MasterPeerConn) MasterPeerConn {
			return pushDropper{MasterPeerConn: conn, id: id, drop: &drop}
		},
	})
	if err != nil {
		t.Fatalf("StartLocalCluster: %v", err)
	}
	t.Cleanup(c.Close)
	beatAll(t, c)
	ctx := context.Background()
	if err := c.Client().CreateTable(ctx, "t"); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	tickAll(c, clock.t)

	a, b := "m-1", "m-2"
	if !c.MasterByID(a).outranksMe(b) {
		a, b = b, a
	}
	drop = b
	if err := c.Client().CreateTable(ctx, "late"); err != nil {
		t.Fatalf("CreateTable(late): %v", err)
	}
	if !c.KillMaster("m-0") {
		t.Fatal("KillMaster(m-0) found nothing to kill")
	}
	clock.advance(5 * time.Second)
	tickAll(c, clock.t)
	if got := leaders(c); len(got) != 1 || got[0] != a {
		t.Fatalf("leaders = %v, want [%s] (it holds the newest image; %s outranks it)", got, a, b)
	}
	if regions := c.MasterByID(a).Meta().Tables["late"]; len(regions) == 0 {
		t.Fatal("the last acked mutation is missing from the new leader's META")
	}
}
