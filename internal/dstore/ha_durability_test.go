package dstore

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pstorm/internal/hstore"
)

// TestHeartbeatRejoinAfterUnknownServer covers the failover-orphan: a
// region server whose Join was acked by a since-deposed leader is
// unknown to the new leader's catalog. A plain heartbeat can never fix
// that, so Beat must answer the unknown-server rejection with a fresh
// Join and then resume clean beats.
func TestHeartbeatRejoinAfterUnknownServer(t *testing.T) {
	reg := NewRegistry()
	rs := NewRegionServer("rs-0", reg)
	m := NewMaster(reg, MasterOptions{Replication: 1})
	defer m.Close()
	mc := ConnectMaster(m)

	// The master has never heard of rs-0: the direct heartbeat is the
	// non-retryable unknown-server rejection.
	if err := m.Heartbeat("rs-0"); !errors.Is(err, ErrUnknownServer) {
		t.Fatalf("Heartbeat(unknown) = %v, want ErrUnknownServer", err)
	}
	if retryable(m.Heartbeat("rs-0")) {
		t.Fatal("ErrUnknownServer is retryable; the heartbeat loop would spin instead of rejoining")
	}

	// One beat round self-heals: heartbeat rejected, Join re-registers.
	rs.Beat(mc, Peer{ID: "rs-0"})
	found := false
	for _, p := range m.Meta().Servers {
		found = found || p.ID == "rs-0"
	}
	if !found {
		t.Fatalf("rs-0 not registered after Beat: %+v", m.Meta().Servers)
	}
	if n := rs.cRejoins.Value(); n != 1 {
		t.Fatalf("rejoins after first beat = %d, want 1", n)
	}

	// Once registered, beats are plain heartbeats again — no more joins.
	rs.Beat(mc, Peer{ID: "rs-0"})
	if n := rs.cRejoins.Value(); n != 1 {
		t.Fatalf("rejoins after second beat = %d, want still 1", n)
	}
}

// TestJournalPushSurvivesLeaderCrashBeforeTick is the synchronous-push
// durability property: a mutation the leader acks AFTER the standbys'
// last journal pull but BEFORE the leader dies must still surface on
// the promoted standby — the push-before-ack closed the old
// tail-to-crash loss window.
func TestJournalPushSurvivesLeaderCrashBeforeTick(t *testing.T) {
	c, clock := startHACluster(t, 3, nil)
	// Establish the electorate: the leader learns its standbys are alive
	// (push targets), the standbys mirror the history so far.
	tickAll(c, clock.t)
	if got := leaders(c); len(got) != 1 || got[0] != "m-0" {
		t.Fatalf("bootstrap leaders = %v, want [m-0]", got)
	}

	// The mutation at risk: created after the last tick, so no standby
	// ever pull-tailed it. Only the synchronous push carries it.
	if err := c.Client().CreateTable(context.Background(), "late"); err != nil {
		t.Fatalf("CreateTable(late): %v", err)
	}
	if n := c.Snapshot().Counters["dstore_master_journal_pushes_total"]; n == 0 {
		t.Fatal("no journal pushes recorded; the ack was not synchronously replicated")
	}
	if !c.KillMaster("m-0") {
		t.Fatal("KillMaster(m-0) found nothing to kill")
	}

	clock.advance(5 * time.Second)
	tickAll(c, clock.t)
	got := leaders(c)
	if len(got) != 1 {
		t.Fatalf("post-lease leaders = %v, want exactly one", got)
	}
	nl := c.MasterByID(got[0])
	if regions := nl.Meta().Tables["late"]; len(regions) == 0 {
		t.Fatalf("table created between last tail and leader crash lost on failover; new leader tables: %v", nl.Meta().Tables)
	}
}

// TestRestartedHAMasterBootsStandby pins the restart rule: an HA master
// reopening its own journal must come back as a standby (its catalog
// may be stale; a live peer may already lead at a higher epoch) and
// reach leadership only through the election path. The legacy
// single-master restart keeps booting straight into leadership.
func TestRestartedHAMasterBootsStandby(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	NewRegionServer("rs-0", reg)
	opts := MasterOptions{
		ID:          "m-0",
		Peers:       []Peer{{ID: "m-0"}, {ID: "m-1"}},
		Replication: 1,
		JournalDir:  dir,
		PeerResolver: func(p Peer) (MasterPeerConn, error) {
			return nil, errors.New("test: peer unreachable")
		},
	}
	m, err := OpenMaster(reg, opts)
	if err != nil {
		t.Fatalf("OpenMaster: %v", err)
	}
	// A fresh HA bootstrap (no journal to recover) leads immediately.
	if m.Role() != roleLeader {
		t.Fatalf("fresh bootstrap role = %s, want leader", m.Role())
	}
	if err := m.Join(Peer{ID: "rs-0"}); err != nil {
		t.Fatalf("Join: %v", err)
	}
	if err := m.CreateTable("t"); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	m.Close()

	// Same options, journal now present: the restart must NOT resume the
	// leader role its dead incarnation held.
	m2, err := OpenMaster(reg, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer m2.Close()
	if m2.Role() != roleStandby {
		t.Fatalf("restarted HA master role = %s, want standby", m2.Role())
	}
	// The standby serves META from the image its journal recovered.
	if len(m2.Meta().Tables["t"]) == 0 {
		t.Fatal("restarted standby lost the recovered catalog")
	}

	// Control: a single-master (non-HA) restart has no electorate to
	// defer to and boots leading, as it always has.
	soloDir := t.TempDir()
	solo, err := OpenMaster(reg, MasterOptions{Replication: 1, JournalDir: soloDir})
	if err != nil {
		t.Fatalf("OpenMaster(solo): %v", err)
	}
	if err := solo.Join(Peer{ID: "rs-0"}); err != nil {
		t.Fatalf("solo Join: %v", err)
	}
	solo.Close()
	solo2, err := OpenMaster(reg, MasterOptions{Replication: 1, JournalDir: soloDir})
	if err != nil {
		t.Fatalf("reopen solo: %v", err)
	}
	defer solo2.Close()
	if solo2.Role() != roleLeader {
		t.Fatalf("restarted single master role = %s, want leader", solo2.Role())
	}
}

// TestColdRestartedClusterElectsOnFirstTick: when every master restarts
// (all boot as standbys now), the fullView fast path must elect a
// leader on the first tick that reaches the whole electorate — not
// leave the control plane idle for a full election grace.
func TestColdRestartedClusterElectsOnFirstTick(t *testing.T) {
	clock := newTestClock()
	reg := NewRegistry()
	NewRegionServer("rs-0", reg)
	dirs := map[string]string{"m-0": t.TempDir(), "m-1": t.TempDir()}
	peers := []Peer{{ID: "m-0"}, {ID: "m-1"}}

	var mu sync.Mutex
	live := map[string]*Master{}
	open := func(id string, standby bool) *Master {
		m, err := OpenMaster(reg, MasterOptions{
			ID:          id,
			Peers:       peers,
			Replication: 1,
			Standby:     standby,
			Now:         clock.now,
			JournalDir:  dirs[id],
			PeerResolver: func(p Peer) (MasterPeerConn, error) {
				mu.Lock()
				defer mu.Unlock()
				return ConnectMasterPeer(live[p.ID]), nil
			},
		})
		if err != nil {
			t.Fatalf("OpenMaster(%s): %v", id, err)
		}
		mu.Lock()
		live[id] = m
		mu.Unlock()
		return m
	}

	// First incarnation: m-0 bootstraps as leader, m-1 as its standby.
	m0, m1 := open("m-0", false), open("m-1", true)
	if err := m0.Join(Peer{ID: "rs-0"}); err != nil {
		t.Fatalf("Join: %v", err)
	}
	if err := m0.CreateTable("t"); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	m0.ElectionTick(clock.t)
	m1.ElectionTick(clock.t)
	m0.Close()
	m1.Close()

	// Whole-cluster restart: both recover journals, both boot standby.
	n0, n1 := open("m-0", false), open("m-1", false)
	defer n0.Close()
	defer n1.Close()
	if n0.Role() != roleStandby || n1.Role() != roleStandby {
		t.Fatalf("restart roles = %s/%s, want standby/standby", n0.Role(), n1.Role())
	}

	// One tick round at the restart instant — no lease wait, no clock
	// advance — and the full-view fast path seats exactly one leader.
	n0.ElectionTick(clock.t)
	n1.ElectionTick(clock.t)
	var elected []*Master
	for _, m := range []*Master{n0, n1} {
		if m.IsLeader() {
			elected = append(elected, m)
		}
	}
	if len(elected) != 1 {
		t.Fatalf("leaders after first restart tick = %d, want exactly 1", len(elected))
	}
	if len(elected[0].Meta().Tables["t"]) == 0 {
		t.Fatal("fast-elected leader lost the recovered catalog")
	}
}

// failRenameFS fails Rename while armed — the step that commits a
// checkpoint rewrite — leaving every other operation real.
type failRenameFS struct {
	hstore.FS
	fail atomic.Bool
}

func (f *failRenameFS) Rename(oldpath, newpath string) error {
	if f.fail.Load() {
		return errors.New("test: injected rename failure")
	}
	return f.FS.Rename(oldpath, newpath)
}

// TestJournalCompactionFallbackOnRenameFailure: a checkpoint rewrite
// that cannot commit its rename must leave the on-disk journal exactly
// as it was and fall back to a plain append — an acked mutation never
// rides on the rewrite landing. Once the filesystem heals, the next
// append compacts.
func TestJournalCompactionFallbackOnRenameFailure(t *testing.T) {
	dir := t.TempDir()
	fsys := &failRenameFS{FS: hstore.OSFS}
	fsys.fail.Store(true)
	reg := NewRegistry()
	m, err := OpenMaster(reg, MasterOptions{Replication: 2, DefaultSplits: []string{"m"}, JournalDir: dir, FS: fsys})
	if err != nil {
		t.Fatalf("OpenMaster: %v", err)
	}
	defer m.Close()
	for _, id := range []string{"rs-0", "rs-1"} {
		NewRegionServer(id, reg)
		if err := m.Join(Peer{ID: id}); err != nil {
			t.Fatalf("Join: %v", err)
		}
	}
	if err := m.CreateTable("t"); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	g := m.Meta().Tables["t"][0]
	primary, follower := g.Primary, g.Followers[0]
	move := func(i int) {
		to := follower
		if i%2 == 1 {
			to = primary
		}
		if _, err := m.MoveRegion("t", g.ID, to); err != nil {
			t.Fatalf("MoveRegion %d: %v", i, err)
		}
	}
	// Push past the compaction threshold and keep appending: every
	// over-threshold append attempts (and fails) a rewrite.
	i := 0
	for ; m.journal.size() <= journalCheckpointBytes+4096; i++ {
		if i > 5000 {
			t.Fatal("journal never crossed the compaction threshold")
		}
		move(i)
	}
	if n := m.cJournalCheckpoints.Value(); n != 0 {
		t.Fatalf("journal checkpoints = %d under failing renames, want 0 (no compaction committed)", n)
	}
	raw, err := os.ReadFile(filepath.Join(dir, metaJournalFile))
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	st, _, cleanLen, corrupt := replayMetaJournal(raw)
	if corrupt || cleanLen != int64(len(raw)) || st == nil {
		t.Fatalf("journal dirty after rewrite failures: corrupt=%v clean=%d/%d", corrupt, cleanLen, len(raw))
	}
	if st.Epoch != m.Epoch() {
		t.Fatalf("journal replays to epoch %d, live is %d: an acked mutation was lost", st.Epoch, m.Epoch())
	}

	// Heal the filesystem: the very next append retries the rewrite.
	fsys.fail.Store(false)
	move(i)
	if n := m.cJournalCheckpoints.Value(); n != 1 {
		t.Fatalf("journal checkpoints = %d after heal, want 1 (compaction retried)", n)
	}
	raw, err = os.ReadFile(filepath.Join(dir, metaJournalFile))
	if err != nil {
		t.Fatalf("reread journal: %v", err)
	}
	if int64(len(raw)) > journalCheckpointBytes/4 {
		t.Fatalf("journal not compacted after heal: %d bytes", len(raw))
	}
	st, _, cleanLen, corrupt = replayMetaJournal(raw)
	if corrupt || cleanLen != int64(len(raw)) || st == nil || st.Epoch != m.Epoch() {
		t.Fatalf("compacted journal wrong: corrupt=%v clean=%d/%d", corrupt, cleanLen, len(raw))
	}
}

// syncCountFS counts Sync calls on every append handle it opens.
type syncCountFS struct {
	hstore.FS
	syncs atomic.Int64
}

func (f *syncCountFS) OpenAppend(path string) (hstore.AppendFile, error) {
	af, err := f.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &syncCountFile{AppendFile: af, n: &f.syncs}, nil
}

type syncCountFile struct {
	hstore.AppendFile
	n *atomic.Int64
}

func (f *syncCountFile) Sync() error {
	f.n.Add(1)
	return f.AppendFile.Sync()
}

// TestJournalAppendsFsync pins the durability contract of an acked
// control-plane mutation: every journal append syncs to stable storage
// before the mutation returns, so a power cut — not just a process
// crash — cannot take back an ack.
func TestJournalAppendsFsync(t *testing.T) {
	fsys := &syncCountFS{FS: hstore.OSFS}
	reg := NewRegistry()
	m, err := OpenMaster(reg, MasterOptions{Replication: 1, JournalDir: t.TempDir(), FS: fsys})
	if err != nil {
		t.Fatalf("OpenMaster: %v", err)
	}
	defer m.Close()
	NewRegionServer("rs-0", reg)

	for i, mutate := range []func() error{
		func() error { return m.Join(Peer{ID: "rs-0"}) },
		func() error { return m.CreateTable("t1") },
		func() error { return m.CreateTable("t2") },
	} {
		before := fsys.syncs.Load()
		if err := mutate(); err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		}
		if after := fsys.syncs.Load(); after <= before {
			t.Fatalf("mutation %d acked without a journal fsync (syncs %d -> %d)", i, before, after)
		}
	}
}

// stubSyncFS replaces the fsync of every append handle it opens with
// sync — a leader whose disk has gone bad, or a model that restarts
// processes, not machines — leaving every other operation real.
type stubSyncFS struct {
	hstore.FS
	sync func() error
}

func (f stubSyncFS) OpenAppend(path string) (hstore.AppendFile, error) {
	af, err := f.FS.OpenAppend(path)
	return stubSyncFile{af, f.sync}, err
}

type stubSyncFile struct {
	hstore.AppendFile
	sync func() error
}

func (f stubSyncFile) Sync() error { return f.sync() }

// TestLeaderDiskFailureStillReplicates: a leader that cannot write its
// own journal must still push the mutation to its standbys before it
// acks — otherwise one failed fsync leaves an acked change in nothing
// but the leader's RAM, and the leader's death loses it.
func TestLeaderDiskFailureStillReplicates(t *testing.T) {
	clock := newTestClock()
	reg := NewRegistry()
	NewRegionServer("rs-0", reg)
	var diskFailed atomic.Bool
	fsys := stubSyncFS{hstore.OSFS, func() error {
		if diskFailed.Load() {
			return errors.New("test: injected fsync failure")
		}
		return nil
	}}
	masters := map[string]*Master{}
	open := func(id string, opts MasterOptions) *Master {
		opts.ID, opts.Peers = id, []Peer{{ID: "m-0"}, {ID: "m-1"}}
		opts.Replication, opts.Now = 1, clock.now
		opts.PeerResolver = func(p Peer) (MasterPeerConn, error) { return ConnectMasterPeer(masters[p.ID]), nil }
		m, err := OpenMaster(reg, opts)
		if err != nil {
			t.Fatalf("OpenMaster(%s): %v", id, err)
		}
		t.Cleanup(m.Close)
		masters[id] = m
		return m
	}
	m0 := open("m-0", MasterOptions{JournalDir: t.TempDir(), FS: fsys})
	m1 := open("m-1", MasterOptions{Standby: true})
	if err := m0.Join(Peer{ID: "rs-0"}); err != nil {
		t.Fatalf("Join: %v", err)
	}
	m0.ElectionTick(clock.t)
	m1.ElectionTick(clock.t)

	diskFailed.Store(true)
	pushes := m0.cJournalPushes.Value()
	if err := m0.CreateTable("late"); err != nil {
		t.Fatalf("CreateTable with a failing journal disk: %v", err)
	}
	journalErrors := 0
	for _, e := range m0.Obs().EventLog().Since(0, 0) {
		if e.Type == "journal_error" {
			journalErrors++
		}
	}
	if journalErrors != 1 {
		t.Fatalf("journal_error events = %d, want 1 (the failed fsync must be reported)", journalErrors)
	}
	if m0.cJournalPushes.Value() == pushes {
		t.Fatal("the failed local append also withheld the mutation from the standby")
	}

	m0.Stop()
	clock.advance(5 * time.Second)
	m1.ElectionTick(clock.t)
	if !m1.IsLeader() {
		t.Fatal("standby did not promote after the leader died")
	}
	if len(m1.Meta().Tables["late"]) == 0 {
		t.Fatalf("acked table lost with the leader; promoted standby holds %v", m1.Meta().Tables)
	}
}

// livePeer reaches whichever incarnation of a master currently holds
// the ID, so peers' cached conns survive its restarts.
type livePeer struct {
	id   string
	live map[string]*Master
}

func (c livePeer) Ping(from string) (PeerStatus, error) { return c.live[c.id].Ping(from) }
func (c livePeer) PullImage(masterEpoch, epoch int64) (MetaImage, error) {
	return c.live[c.id].PullImage(masterEpoch, epoch)
}
func (c livePeer) PushImage(from string, img MetaImage) error {
	return c.live[c.id].PushImage(from, img)
}

// lossyPeerConn drops a third of all pushes, on top of whatever
// partitions the gate beneath it imposes.
type lossyPeerConn struct {
	MasterPeerConn
	rng *rand.Rand
}

func (c lossyPeerConn) PushImage(from string, img MetaImage) error {
	if c.rng.Intn(3) == 0 {
		return fmt.Errorf("test: push dropped: %w", errTransport)
	}
	return c.MasterPeerConn.PushImage(from, img)
}

// TestImageReplicationModel is the model check of latest-image-wins
// replication: over many seeded interleavings of leader mutations,
// dropped pushes, partitions (two masters believing they lead),
// process restarts from each master's own journal dir, clock jumps and
// election ticks, three invariants hold after every step — the version
// a master holds never decreases, restarts included; a standby that
// just pulled from its leader holds at least the leader's version, and
// at the same version the same catalog byte for byte; a restarted
// master recovers at least the version it last acknowledged — and once
// the network heals exactly one master leads, every other has caught up
// with it, and no acked mutation is absent from its META. The
// exceptions are the availability-first windows — an ack by a leader
// after a later reign began elsewhere, and a promotion by a master that
// could reach no master holding the mutation — which are logged with
// their seed.
func TestImageReplicationModel(t *testing.T) {
	base := t.TempDir()
	for seed := int64(1); seed <= 200; seed++ {
		runImageReplicationModel(t, seed, filepath.Join(base, fmt.Sprint(seed)))
		if t.Failed() {
			return
		}
	}
}

func runImageReplicationModel(t *testing.T, seed int64, dir string) {
	rng := rand.New(rand.NewSource(seed))
	clock := newTestClock()
	reg := NewRegistry()
	gate := &gatedPeers{blocked: make(map[string]bool)}
	ids := []string{"m-0", "m-1", "m-2"}
	peers := []Peer{{ID: "m-0"}, {ID: "m-1"}, {ID: "m-2"}}
	live := map[string]*Master{}
	open := func(id string, standby bool) *Master {
		m, err := OpenMaster(reg, MasterOptions{
			ID: id, Peers: peers, Standby: standby, Replication: 1, Seed: seed,
			HeartbeatTimeout: 2 * time.Second, LeaseDuration: 4 * time.Second, Now: clock.now,
			JournalDir: filepath.Join(dir, id), FS: stubSyncFS{hstore.OSFS, func() error { return nil }},
			PeerResolver: func(p Peer) (MasterPeerConn, error) {
				return lossyPeerConn{gate.wrap(p.ID, livePeer{p.ID, live}), rng}, nil
			},
		})
		if err != nil {
			t.Fatalf("seed %d: OpenMaster(%s): %v", seed, id, err)
		}
		t.Cleanup(m.Close)
		live[id] = m
		return m
	}
	held := func(m *Master) metaVersion { return m.journal.image().version() }
	image := func(m *Master) []byte {
		m.mu.Lock()
		defer m.mu.Unlock()
		b, err := json.Marshal(m.journal.image())
		if err != nil {
			t.Fatalf("seed %d: marshal catalog: %v", seed, err)
		}
		return b
	}

	// caughtUp is what one successful pull guarantees: the standby holds
	// at least the leader's version, and at the same version the same
	// catalog, byte for byte.
	caughtUp := func(step int, standby, leader *Master) {
		if held(leader).newerThan(held(standby)) {
			t.Fatalf("seed %d step %d: %s pulled from leader %s yet holds %+v < %+v",
				seed, step, standby.id, leader.id, held(standby), held(leader))
		}
		if held(leader) == held(standby) && !bytes.Equal(image(standby), image(leader)) {
			t.Fatalf("seed %d step %d: %s and leader %s differ at version %+v:\n standby: %s\n leader:  %s",
				seed, step, standby.id, leader.id, held(standby), image(standby), image(leader))
		}
	}

	for i, id := range ids {
		open(id, i > 0)
	}
	for _, id := range []string{"rs-0", "rs-1"} {
		NewRegionServer(id, reg)
		if err := live["m-0"].Join(Peer{ID: id}); err != nil {
			t.Fatalf("seed %d: Join(%s): %v", seed, id, err)
		}
	}

	// acked maps every table whose create was acknowledged to why the
	// availability-first design may lose it ("" while nothing has).
	acked := map[string]string{}
	// promoted checks a promotion: the new reign starts from m's image,
	// so an acked table m lacks is lost — allowed only when m could reach
	// no master that held it.
	promoted := func(step int, m *Master) {
		img := m.journal.image()
		for _, table := range slices.Sorted(maps.Keys(acked)) {
			if acked[table] != "" || (img != nil && img.Tables[table] != nil) {
				continue
			}
			for _, id := range ids {
				h := live[id].journal.image()
				if id != m.id && !gate.cut(id) && !gate.cut(m.id) && h != nil && h.Tables[table] != nil {
					t.Errorf("seed %d step %d: %s promoted without acked table %s, which reachable %s held", seed, step, m.id, table, id)
				}
			}
			acked[table] = fmt.Sprintf("%s promoted at step %d reaching no master that held it", m.id, step)
		}
	}
	tick := func(step int, m *Master) {
		was := m.IsLeader()
		m.ElectionTick(clock.t)
		if !was && m.IsLeader() {
			promoted(step, m)
		}
	}
	last := map[string]metaVersion{}
	for step := 0; step < 60; step++ {
		m := live[ids[rng.Intn(len(ids))]]
		switch op := rng.Intn(10); {
		case op < 3:
			// Whoever believes it leads mutates; a fenced leader's attempt
			// fails and deposes it, which is the point.
			table := fmt.Sprintf("t%d", step)
			if m.IsLeader() && m.CreateTable(table) == nil {
				acked[table] = ""
				for _, id := range ids {
					if e := held(live[id]).masterEpoch; e > m.MasterEpoch() {
						acked[table] = fmt.Sprintf("acked by %s at master epoch %d after a reign at %d (held by %s) began", m.id, m.MasterEpoch(), e, id)
					}
				}
			}
		case op < 7:
			tick(step, m)
			m.mu.Lock()
			role, leaderID := m.Role(), m.leaderID
			m.mu.Unlock()
			l := live[leaderID]
			if role != roleStandby || l == nil || l == m || !l.IsLeader() || gate.cut(m.id) || gate.cut(l.id) {
				break // no pull, or not from a leader
			}
			caughtUp(step, m, l)
		case op == 7:
			clock.advance(time.Duration(rng.Intn(3000)) * time.Millisecond)
		case op == 8:
			if gate.cut(m.id) {
				gate.heal(m.id)
			} else {
				gate.block(m.id)
			}
		default:
			acked := held(m)
			m.Stop()
			if got := held(open(m.id, true)); acked.newerThan(got) {
				t.Fatalf("seed %d step %d: %s restarted at %+v, had acknowledged %+v", seed, step, m.id, got, acked)
			}
		}
		for _, id := range ids {
			if v := held(live[id]); last[id].newerThan(v) {
				t.Fatalf("seed %d step %d: %s's held version went backwards: %+v -> %+v", seed, step, id, last[id], v)
			} else {
				last[id] = v
			}
		}
	}

	for _, id := range ids {
		gate.heal(id)
	}
	for round := 0; round < 5; round++ {
		clock.advance(5 * time.Second)
		for _, id := range ids {
			tick(60+round, live[id])
		}
	}
	var leader *Master
	for _, id := range ids {
		if live[id].IsLeader() {
			if leader != nil {
				t.Fatalf("seed %d: two leaders after healing: %s and %s", seed, leader.id, id)
			}
			leader = live[id]
		}
	}
	if leader == nil {
		t.Fatalf("seed %d: no leader after healing", seed)
	}
	for _, id := range ids {
		if live[id] != leader {
			caughtUp(-1, live[id], leader)
		}
	}
	meta := leader.Meta()
	for _, table := range slices.Sorted(maps.Keys(acked)) {
		switch _, ok := meta.Tables[table]; {
		case ok:
		case acked[table] == "":
			t.Errorf("seed %d: acked table %s is absent after healing", seed, table)
		default:
			t.Logf("seed %d: acked table %s lost in the availability-first window: %s", seed, table, acked[table])
		}
	}
}
