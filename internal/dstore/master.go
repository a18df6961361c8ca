package dstore

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pstorm/internal/hstore"
	"pstorm/internal/obs"
)

// MasterOptions tune the master.
type MasterOptions struct {
	// HeartbeatTimeout is how long a server may go silent before it is
	// declared dead and failed over (default 2s).
	HeartbeatTimeout time.Duration
	// Replication is the copies-per-region target, primary included
	// (default 2, capped at the number of live servers).
	Replication int
	// DefaultSplits are the region boundary keys used when CreateTable
	// is called without explicit splits (nil: one region per table).
	DefaultSplits []string
	// Now is the clock (default time.Now); tests inject their own.
	Now func() time.Time

	// ID names this master among its peers (default "m-0"). Required to
	// be unique per master when Peers is set.
	ID string
	// Peers is the full master electorate, this master included. More
	// than one peer enables HA: lease election, catalog-image exchange,
	// and epoch fencing of control RPCs. Empty or single-entry keeps the
	// legacy single-master behavior (unfenced, always leader).
	Peers []Peer
	// Standby starts this master as a standby: it holds the newest
	// catalog image the leader has pushed (or it has pulled), serves
	// reads from it, and promotes itself when the leader's lease lapses.
	// Ignored without Peers.
	Standby bool
	// LeaseDuration is how long a leader may go unreachable before
	// standbys may promote (default 2×HeartbeatTimeout).
	LeaseDuration time.Duration
	// Seed feeds the deterministic election tie-break ranks.
	Seed int64
	// JournalDir, when set, persists this master's own META journal
	// there so a restarted master recovers its catalog (use OpenMaster to
	// surface open/replay errors).
	JournalDir string
	// FS is the journal's filesystem (default hstore.OSFS); fault tests
	// inject their own.
	FS hstore.FS
	// PeerResolver resolves master peers to conns. Default: HTTP by
	// Peer.Addr. Local clusters inject direct conns; chaos wraps them.
	PeerResolver func(Peer) (MasterPeerConn, error)
}

func (o MasterOptions) heartbeatTimeout() time.Duration {
	if o.HeartbeatTimeout > 0 {
		return o.HeartbeatTimeout
	}
	return 2 * time.Second
}

func (o MasterOptions) id() string {
	if o.ID != "" {
		return o.ID
	}
	return "m-0"
}

func (m *Master) leaseDuration() time.Duration {
	if m.opts.LeaseDuration > 0 {
		return m.opts.LeaseDuration
	}
	return 2 * m.opts.heartbeatTimeout()
}

func (o MasterOptions) replication() int {
	if o.Replication > 0 {
		return o.Replication
	}
	return 2
}

// member is what the master knows of a server beyond the catalog: how
// to reach it and when it last beat. Neither is journaled; identity and
// liveness live in the catalog image.
type member struct {
	conn     controlConn
	lastBeat time.Time
}

// Master owns the META catalog and region→server assignment: liveness
// via heartbeats, follower promotion on primary death, re-replication,
// and region moves. The catalog is one metaState: the leader edits a
// working copy and commit publishes it — journaled, held, pushed, and
// served as META. With MasterOptions.Peers set the master is one voice
// in an HA electorate: standbys serve the newest image they hold and
// promote on lease expiry (election.go).
type Master struct {
	opts MasterOptions
	reg  *Registry
	id   string

	// electorate is the sorted ID set of all masters (self included);
	// immutable after construction.
	electorate []string

	// journal persists every image this master commits or accepts and
	// holds the newest; its lock is a leaf, so a pushed image never
	// waits on the catalog lock.
	journal *metaJournal
	stopped atomic.Bool
	// leading is the role. It changes only under mu, but the held slot
	// reads it without mu to refuse peer images while leading.
	leading atomic.Bool

	mu sync.Mutex
	// cat is the working catalog while leading: every mutation edits it
	// and ends in commit. A standby serves the held image instead and
	// promotion rebuilds cat from it.
	cat     metaState
	servers map[string]*member
	// owed holds control RPCs a server has yet to ack (owedRPC); every
	// liveness and health round retries them until it does.
	owed map[owedRPC]bool
	// inFlight marks the regions a choreography or a ledger payment is
	// sending RPCs to; nothing else sends them any until it lands.
	inFlight map[regionRef]bool

	// Election state (all under mu). masterEpoch is this master's
	// fencing term stamped on every control RPC; 0 means legacy
	// single-master, unfenced. maxSeenMasterEpoch tracks the highest
	// epoch observed anywhere — the floor the next promotion must clear.
	masterEpoch        int64
	maxSeenMasterEpoch int64
	leaderID           string
	leaderAddr         string
	seen               map[string]peerSeen
	peerConns          map[string]MasterPeerConn
	electionGrace      time.Time
	// fastElect marks a cold-started standby that has never led nor been
	// deposed this incarnation: it may promote on a tick that reached the
	// whole electorate without waiting out the election grace (a restart
	// must not idle the cluster for a full lease when every peer is
	// reachable and none leads). Cleared on first promotion or stepdown —
	// a deposed leader always waits out the re-armed grace.
	fastElect bool

	loopStop chan struct{}
	loopOnce sync.Once

	o                   *obs.Registry
	cHeartbeats         *obs.Counter
	cJoins              *obs.Counter
	cDeaths             *obs.Counter
	cFailovers          *obs.Counter
	cMoves              *obs.Counter
	cRepairs            *obs.Counter
	cRebuilds           *obs.Counter
	cElections          *obs.Counter
	cStepdowns          *obs.Counter
	gLeader             *obs.Gauge
	cJournalAppends     *obs.Counter
	cJournalCheckpoints *obs.Counter
	cJournalTails       *obs.Counter
	cJournalPushes      *obs.Counter
	cJournalPushMisses  *obs.Counter
}

// NewMaster creates a master resolving servers through reg. It cannot
// surface journal-recovery errors, so it requires JournalDir to be
// unset; use OpenMaster for a durable-journal master.
func NewMaster(reg *Registry, opts MasterOptions) *Master {
	m, err := OpenMaster(reg, opts)
	if err != nil {
		// Only reachable with a JournalDir, which NewMaster's contract
		// excludes.
		panic("dstore: NewMaster with a journal dir: " + err.Error())
	}
	return m
}

// OpenMaster creates a master, replaying its durable META journal when
// MasterOptions.JournalDir is set: the recovered image (tables,
// servers, epochs) is held and becomes the catalog, server leases are
// restamped to now (nobody is declared dead for silence during the
// master's own outage), and a torn journal tail is truncated. A journal that fails
// a checksum mid-file still opens on its clean prefix, but says so: a
// journal_corrupt event and dstore_master_journal_corrupt_total.
func OpenMaster(reg *Registry, opts MasterOptions) (*Master, error) {
	o := obs.NewRegistry()
	journal, discarded, err := openMetaJournal(opts.FS, opts.JournalDir)
	if err != nil {
		return nil, fmt.Errorf("dstore: opening META journal: %w", err)
	}
	m := &Master{
		opts:                opts,
		reg:                 reg,
		id:                  opts.id(),
		journal:             journal,
		owed:                make(map[owedRPC]bool),
		inFlight:            make(map[regionRef]bool),
		seen:                make(map[string]peerSeen),
		peerConns:           make(map[string]MasterPeerConn),
		loopStop:            make(chan struct{}),
		o:                   o,
		cHeartbeats:         o.Counter("dstore_master_heartbeats_total"),
		cJoins:              o.Counter("dstore_master_joins_total"),
		cDeaths:             o.Counter("dstore_master_server_deaths_total"),
		cFailovers:          o.Counter("dstore_master_failovers_total"),
		cMoves:              o.Counter("dstore_master_moves_total"),
		cRepairs:            o.Counter("dstore_master_rereplications_total"),
		cRebuilds:           o.Counter("quarantine_rebuilds_total"),
		cElections:          o.Counter("dstore_master_elections_total"),
		cStepdowns:          o.Counter("dstore_master_stepdowns_total"),
		gLeader:             o.Gauge("dstore_master_leader"),
		cJournalAppends:     o.Counter("dstore_master_journal_appends_total"),
		cJournalCheckpoints: o.Counter("dstore_master_journal_checkpoints_total"),
		cJournalTails:       o.Counter("dstore_master_journal_tails_total"),
		cJournalPushes:      o.Counter("dstore_master_journal_pushes_total"),
		cJournalPushMisses:  o.Counter("dstore_master_journal_push_misses_total"),
	}
	// Event timestamps follow the injected clock so deterministic tests
	// see deterministic traces.
	o.Now = m.now

	seen := map[string]bool{m.id: true}
	m.electorate = []string{m.id}
	for _, p := range opts.Peers {
		if !seen[p.ID] {
			seen[p.ID] = true
			m.electorate = append(m.electorate, p.ID)
		}
	}
	sort.Strings(m.electorate)

	recovered := journal.held
	leader := true
	if m.haEnabled() && (opts.Standby || recovered != nil) {
		// A restarted HA master (journal present) must not boot straight
		// into leadership: its catalog may be stale and a live peer may
		// already lead with a higher epoch. It boots as a standby and
		// promotes through the normal election path — fast, if the first
		// tick reaches every peer and sees no fresher leader (fullView in
		// ElectionTick), else after the election grace. Only a fresh
		// non-standby bootstrap (no journal to recover) starts leading
		// immediately.
		leader = false
		m.fastElect = true
	}
	if discarded > 0 {
		o.Counter("dstore_master_journal_corrupt_total").Inc()
		m.o.Emit("journal_corrupt", map[string]string{
			"clean_bytes":     strconv.FormatInt(journal.size(), 10),
			"discarded_bytes": strconv.FormatInt(discarded, 10),
		})
	}
	m.cat = recovered.clone()
	m.resolveConnsLocked(m.now())
	if recovered != nil {
		m.o.Emit("journal_recover", map[string]string{
			"epoch":   strconv.FormatInt(recovered.Epoch, 10),
			"servers": strconv.Itoa(len(recovered.Servers)),
		})
	}
	if leader {
		m.leaderID, m.leaderAddr, m.cat.LeaderID = m.id, m.peerAddr(m.id), m.id
		if m.haEnabled() {
			// A fresh HA bootstrap leader (nothing recovered — a restart
			// boots standby) mints its first fencing epoch.
			m.mintEpochLocked()
		}
		m.leading.Store(true)
		m.gLeader.Set(1)
	}
	return m, nil
}

// resolveConnsLocked rebuilds the runtime server table for the catalog:
// conns re-resolve through the registry — a server that has not
// (re)registered yet gets an unresolvable stub that fails like a dead
// transport until its next Join — and every lease restarts at now, so
// nobody is declared dead for silence on another master's watch.
func (m *Master) resolveConnsLocked(now time.Time) {
	m.servers = make(map[string]*member, len(m.cat.Servers))
	for _, s := range m.cat.Servers {
		var conn controlConn = &unresolvedConn{id: s.Peer.ID}
		if c, err := m.reg.Resolve(s.Peer); err == nil {
			conn = c
		}
		m.servers[s.Peer.ID] = &member{conn: conn, lastBeat: now}
	}
}

// haEnabled reports whether this master runs the HA machinery: more
// than one master in the electorate.
func (m *Master) haEnabled() bool { return len(m.electorate) > 1 }

// MasterID returns this master's identity in the electorate.
func (m *Master) MasterID() string { return m.id }

// IsLeader reports whether this master currently leads.
func (m *Master) IsLeader() bool { return m.leading.Load() }

// Role returns "leader" or "standby".
func (m *Master) Role() string {
	if m.leading.Load() {
		return roleLeader
	}
	return roleStandby
}

// MasterEpoch returns this master's fencing epoch (0 = legacy,
// unfenced).
func (m *Master) MasterEpoch() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.masterEpoch
}

// Stop simulates a master crash: every subsequent RPC — heartbeats,
// META fetches, peer pings, image pulls and pushes — fails with errMasterStopped, and
// the background loop halts. Like RegionServer.Stop there is no
// restart; a recovered master is a new OpenMaster over the same
// journal dir.
func (m *Master) Stop() {
	m.stopped.Store(true)
	m.Close()
	m.journal.close() //nolint:errcheck — crash simulation; the file handle is best-effort
	// Zero the leadership gauge so a merged view over live + crashed
	// masters reports only leaders that are actually serving.
	m.gLeader.Set(0)
}

// Stopped reports whether the master has been stopped.
func (m *Master) Stopped() bool { return m.stopped.Load() }

// notLeaderLocked is the redirect a standby returns from control-plane
// calls it does not own.
func (m *Master) notLeaderLocked() error {
	return &NotLeaderError{LeaderID: m.leaderID, LeaderAddr: m.leaderAddr}
}

// The control plane's one rule: m.mu covers in-memory edits of the
// catalog and commit's journal append, and every server or peer RPC runs
// after the unlock. An edit that needs no RPC first (failover, a
// quarantine hand-off, a rejoin, a promotion) commits and records the
// RPCs it implies in the owed ledger, paid once the lock is released. A
// choreography whose RPCs must come before its catalog change (a
// create's installs, a recruit, a move) plans under the lock and marks
// its region in flight, sends its RPCs unlocked, and re-locks to commit
// only if the region is still as planned — else the ledger owes its
// undo. A region in flight gets RPCs from its own choreography only.

// imagePush is a committed image and the standbys to send it to, both
// taken under m.mu so the sending needs no lock.
type imagePush struct {
	img   MetaImage
	ids   []string
	conns []MasterPeerConn
}

// commit is the one place the catalog changes version. If the working
// catalog differs from the held image outside Epoch, it bumps the
// epoch and keeps a copy: appended to this master's journal and held
// (and so served as META). Every mutation ends here while still holding
// the catalog lock, so journal order is mutation order; it returns the
// image for the caller to push to every standby seen alive within a
// lease once the lock is released. A leader deposed mid-mutation (a
// stale-rejected control RPC) writes nothing over what the new leader
// has pushed it since, and a master with neither a journal dir nor
// peers has nobody to tell, so it frames nothing.
func (m *Master) commit(kind string) (push imagePush) {
	if !m.leading.Load() || m.cat.sameAs(m.journal.image()) {
		return push
	}
	m.cat.Epoch++
	rec := journalRecord{Kind: kind, State: m.cat.clone()}
	var framed []byte
	if m.opts.JournalDir != "" || m.haEnabled() {
		var err error
		if framed, err = frameRecord(rec); err != nil {
			m.o.Emit("journal_error", map[string]string{"kind": kind, "error": err.Error()})
		}
	}
	m.keepImage(rec, framed, false) //nolint:errcheck — only a peer's image can be refused
	if framed == nil || !m.haEnabled() {
		return push
	}
	push.img = MetaImage{Frame: framed}
	now, lease := m.now(), m.leaseDuration()
	for _, id := range m.electorate {
		if p, ok := m.seen[id]; id == m.id || !ok || now.Sub(p.at) > lease {
			continue
		}
		if c, err := m.peerConnLocked(id); err == nil {
			push.ids, push.conns = append(push.ids, id), append(push.conns, c)
		}
	}
	return push
}

// pushImage replicates a committed image to the standbys commit chose,
// before the mutation that made it acks — whether or not the leader's
// own append succeeded: a failing disk must not also withhold the change
// from the masters that could outlive it. Availability-first, never
// quorum: an unreachable or refusing standby is skipped (counted in
// dstore_master_journal_push_misses_total and emitted) and its per-tick
// pull catches it up. Pushes of concurrent commits may land out of
// order; a standby drops an image not newer than the one it holds.
func (m *Master) pushImage(push imagePush) {
	for i, c := range push.conns {
		if err := c.PushImage(m.id, push.img); err != nil {
			m.cJournalPushMisses.Inc()
			m.o.Emit("journal_push_miss", map[string]string{"peer": push.ids[i], "error": err.Error()})
			continue
		}
		m.cJournalPushes.Inc()
	}
}

// Obs exposes the master's metrics registry and event log.
func (m *Master) Obs() *obs.Registry { return m.o }

func (m *Master) now() time.Time {
	if m.opts.Now != nil {
		return m.opts.Now()
	}
	return time.Now() //pstorm:allow clockcheck this is the injection point's default when MasterOptions.Now is unset
}

// deposeOnStaleLocked steps the leader down when a control RPC was
// rejected stale: the server has already obeyed a newer leader, so this
// master must stop mutating a catalog nobody obeys.
func (m *Master) deposeOnStaleLocked(err error) error {
	if errors.Is(err, ErrStaleMaster) {
		m.stepDownLocked("control RPC rejected: " + err.Error())
	}
	return err
}

// flight is one choreography's control RPCs: the fencing epoch they
// carry and the conns and peers they need, all taken under m.mu, and
// every copy they may have changed — what the ledger owes if the
// choreography does not commit.
type flight struct {
	epoch   int64
	servers map[string]*member // a member's conn never changes
	peers   map[string]Peer
	touched []owedRPC
}

func (m *Master) flightLocked() *flight {
	f := &flight{epoch: m.masterEpoch, servers: maps.Clone(m.servers), peers: make(map[string]Peer)}
	for _, s := range m.cat.Servers {
		f.peers[s.Peer.ID] = s.Peer
	}
	return f
}

func (f *flight) install(server string, snap *hstore.RegionSnapshot) error {
	err := f.servers[server].conn.Install(snap, f.epoch)
	if err == nil {
		f.touched = append(f.touched, owedRPC{regionRef{snap.Table, snap.RegionID}, server})
	}
	return err
}

// setRole tells server its role in g: primary replicating to followers,
// or a fenced follower, which returns once the copy's in-flight writes
// have reached its whole chain.
func (f *flight) setRole(g *RegionInfo, server string, primary bool, followers []string) error {
	f.touched = append(f.touched, owedRPC{regionRef{g.Table, g.ID}, server})
	chain := make([]Peer, 0, len(followers))
	for _, id := range followers {
		chain = append(chain, f.peers[id])
	}
	return f.servers[server].conn.SetRole(g.Table, g.ID, primary, chain, f.epoch)
}

// installRegion creates the empty, fenced copies of a new region on
// every server it names and hands the primary its role.
func (f *flight) installRegion(g *RegionInfo) error {
	for _, id := range append([]string{g.Primary}, g.Followers...) {
		if err := f.install(id, emptyCopy(g)); err != nil {
			return fmt.Errorf("dstore: installing region %d on %s: %w", g.ID, id, err)
		}
	}
	return f.setRole(g, g.Primary, true, g.Followers)
}

// recruit makes cand, which holds no copy of g, a follower on the
// servers: install an empty fenced copy — refused if cand still hosts a
// copy a Drop has yet to remove, which may hold rows deleted since —
// join the primary's chain (the push drains the primary's in-flight
// writes, so every write from here on reaches cand), then backfill it
// with an export taken after the join. The primary serves throughout.
// It returns the snapshot bytes shipped; the catalog change is the
// caller's to commit.
func (f *flight) recruit(g *RegionInfo, cand string) (int64, error) {
	if err := f.install(cand, emptyCopy(g)); err != nil {
		return 0, err
	}
	if err := f.setRole(g, g.Primary, true, append(slices.Clone(g.Followers), cand)); err != nil {
		return 0, err
	}
	snap, err := f.servers[g.Primary].conn.Export(g.Table, g.ID)
	if err != nil {
		return 0, err
	}
	snap.Backfill = true
	if err := f.install(cand, snap); err != nil {
		return 0, err
	}
	return snap.Bytes(), nil
}

// reignLocked reports why a choreography planned at epoch may no longer
// commit: this master stopped leading, or leads a later reign.
func (m *Master) reignLocked(epoch int64) error {
	if !m.leading.Load() || m.masterEpoch != epoch {
		return m.notLeaderLocked()
	}
	return nil
}

// oweLocked records keys in the ledger and returns them.
func (m *Master) oweLocked(keys ...owedRPC) []owedRPC {
	for _, r := range keys {
		m.owed[r] = true
	}
	return keys
}

// undoLocked owes what a choreography that did not commit may have
// changed: the catalog's role push of every region it touched, and
// every copy it touched brought back in line with the catalog.
func (m *Master) undoLocked(f *flight) []owedRPC {
	var keys []owedRPC
	for _, r := range f.touched {
		keys = append(keys, owedRPC{r.regionRef, ""}, r)
	}
	return m.oweLocked(keys...)
}

// beginLocked starts a choreography on g: it marks the region in flight
// and returns the plan — a copy of g as it stands — and the flight its
// RPCs go through. A region already in flight is refused, retryably.
func (m *Master) beginLocked(g *RegionInfo) (RegionInfo, *flight, error) {
	ref := regionRef{g.Table, g.ID}
	if m.inFlight[ref] {
		return RegionInfo{}, nil, fmt.Errorf("%w: region %d of %q", errRegionBusy, g.ID, g.Table)
	}
	m.inFlight[ref] = true
	plan := *g
	plan.Followers = slices.Clone(g.Followers)
	return plan, m.flightLocked(), nil
}

// finishLocked ends a choreography begun on plan. If its RPCs succeeded
// and the region's primary and followers are still as planned, edit
// changes the catalog (returning any RPCs the change owes) and the
// change is committed; otherwise nothing is, and the ledger owes the
// undo. It returns the image to push and the owed RPCs to pay — both
// after the unlock — and the choreography's error.
func (m *Master) finishLocked(plan RegionInfo, f *flight, err error, kind string, edit func(g *RegionInfo) []owedRPC) (imagePush, []payment, error) {
	delete(m.inFlight, regionRef{plan.Table, plan.ID})
	if err = m.deposeOnStaleLocked(err); err == nil {
		err = m.reignLocked(f.epoch)
	}
	g, gerr := m.regionLocked(plan.Table, plan.ID)
	if err == nil && (gerr != nil || g.Primary != plan.Primary || !slices.Equal(g.Followers, plan.Followers)) {
		err = fmt.Errorf("%w: region %d of %q changed while in flight", errRegionBusy, plan.ID, plan.Table)
	}
	if err != nil {
		return imagePush{}, m.takeOwedLocked(m.undoLocked(f)), err
	}
	owe := m.oweLocked(edit(g)...)
	return m.commit(kind), m.takeOwedLocked(owe), nil
}

// Join registers a region server. A re-join of a known ID — whether its
// old incarnation was already declared dead or is still inside its
// liveness window — is a *new incarnation*: the restarted process holds
// none of the regions META assigned its predecessor, so its pending (or
// not-yet-due) failover runs synchronously here and the server revives
// empty. Before this, a same-ID restart inside the liveness window
// raced the death path: META kept routing to a server that no longer
// hosted anything, and the eventual timeout double-processed it.
func (m *Master) Join(p Peer) error {
	if m.stopped.Load() {
		return errMasterStopped
	}
	conn, err := m.reg.Resolve(p)
	if err != nil {
		return err
	}
	m.mu.Lock()
	if !m.leading.Load() {
		err := m.notLeaderLocked()
		m.mu.Unlock()
		return err
	}
	m.servers[p.ID] = &member{conn: conn, lastBeat: m.now()}
	m.cJoins.Inc()
	var push imagePush
	if s := m.cat.server(p.ID); s != nil {
		// New incarnation: fail over whatever the old one held, then
		// revive empty. failoverLocked prunes it from every follower set
		// and promotes live followers of its primaries.
		s.Alive = false
		m.failoverLocked()
		*s = journalServer{Peer: p, Alive: true}
		m.o.Emit("rejoin", map[string]string{"server": p.ID})
		push = m.commit("rejoin")
	} else {
		m.cat.Servers = append(m.cat.Servers, journalServer{Peer: p, Alive: true})
		m.o.Emit("join", map[string]string{"server": p.ID})
		push = m.commit("join")
	}
	ps := m.takeAllOwedLocked()
	m.mu.Unlock()
	m.pushImage(push)
	m.pay(ps)
	return nil
}

// Heartbeat records liveness for a server, reviving one declared dead.
// Standbys redirect: only the leader's liveness view drives failover.
func (m *Master) Heartbeat(id string) error {
	if m.stopped.Load() {
		return errMasterStopped
	}
	m.mu.Lock()
	mem, ok := m.servers[id]
	if !m.leading.Load() || !ok {
		err := m.notLeaderLocked()
		if m.leading.Load() {
			err = fmt.Errorf("%w: heartbeat from %q", ErrUnknownServer, id)
		}
		m.mu.Unlock()
		return err
	}
	mem.lastBeat = m.now()
	m.cHeartbeats.Inc()
	var push imagePush
	if s := m.cat.server(id); !s.Alive {
		s.Alive = true
		push = m.commit("heartbeat")
	}
	m.mu.Unlock()
	m.pushImage(push)
	return nil
}

// Meta serves the routing view of the newest committed image. It reads
// the held image through the journal's leaf lock only, as Epoch does.
func (m *Master) Meta() Meta { return m.journal.image().meta() }

// Epoch returns the current META epoch.
func (m *Master) Epoch() int64 { return m.journal.image().version().epoch }

// alive reports whether the catalog has server id alive.
func (m *Master) alive(id string) bool {
	s := m.cat.server(id)
	return s != nil && s.Alive
}

// aliveIDs returns live server IDs in join order.
func (m *Master) aliveIDs() []string {
	var out []string
	for _, s := range m.cat.Servers {
		if s.Alive {
			out = append(out, s.Peer.ID)
		}
	}
	return out
}

// CreateTable lays the table out with the default splits and
// replication: region i gets primary servers[i mod n] and the next
// replication-1 servers as followers.
func (m *Master) CreateTable(table string) error {
	return m.CreateTableSplits(table, m.opts.DefaultSplits)
}

// CreateTableSplits creates a table with explicit region boundaries:
// splits [k1, k2] yields regions ["", k1), [k1, k2), [k2, ""). The
// regions are planned under the lock, their copies installed after it,
// and the table committed only if the installs all succeeded and no
// create of the same name won meanwhile; otherwise the ledger drops
// every copy installed.
func (m *Master) CreateTableSplits(table string, splits []string) error {
	if m.stopped.Load() {
		return errMasterStopped
	}
	m.mu.Lock()
	regions, err := m.planTableLocked(table, splits)
	f := m.flightLocked()
	m.mu.Unlock()
	if err != nil {
		return err
	}
	for i := range regions {
		if err = f.installRegion(&regions[i]); err != nil {
			break
		}
	}
	m.mu.Lock()
	if err = m.deposeOnStaleLocked(err); err == nil {
		err = m.reignLocked(f.epoch)
	}
	if _, ok := m.cat.Tables[table]; ok && err == nil {
		err = fmt.Errorf("dstore: table %q already exists", table)
	}
	var owe []owedRPC
	if err == nil {
		m.cat.Tables[table] = regions
	} else {
		owe = m.undoLocked(f)
	}
	// A create that fails half-way still consumed region IDs: commit
	// keeps the counter past them.
	push, ps := m.commit("create_table"), m.takeOwedLocked(owe)
	m.mu.Unlock()
	m.pushImage(push)
	m.pay(ps)
	return err
}

// planTableLocked lays out a new table's regions, consuming their IDs.
func (m *Master) planTableLocked(table string, splits []string) ([]RegionInfo, error) {
	if !m.leading.Load() {
		return nil, m.notLeaderLocked()
	}
	if _, ok := m.cat.Tables[table]; ok {
		return nil, fmt.Errorf("dstore: table %q already exists", table)
	}
	alive := m.aliveIDs()
	if len(alive) == 0 {
		return nil, fmt.Errorf("dstore: no live region servers")
	}
	repl := min(m.opts.replication(), len(alive))
	splits = append([]string(nil), splits...)
	sort.Strings(splits)
	bounds := append([]string{""}, splits...)
	var regions []RegionInfo
	for i, start := range bounds {
		end := ""
		if i+1 < len(bounds) {
			end = bounds[i+1]
		}
		g := RegionInfo{
			ID:       m.cat.NextRegionID,
			Table:    table,
			StartKey: start,
			EndKey:   end,
			Primary:  alive[i%len(alive)],
		}
		m.cat.NextRegionID++
		for j := 1; j < repl; j++ {
			g.Followers = append(g.Followers, alive[(i+j)%len(alive)])
		}
		regions = append(regions, g)
	}
	return regions, nil
}

// emptyCopy is the snapshot a fresh copy of g is installed from.
func emptyCopy(g *RegionInfo) *hstore.RegionSnapshot {
	return &hstore.RegionSnapshot{Table: g.Table, RegionID: g.ID, StartKey: g.StartKey, EndKey: g.EndKey}
}

// CheckLiveness declares servers whose heartbeat lapsed dead (as of
// now), promotes followers of their primary regions, prunes them from
// follower sets, and re-replicates under-replicated regions onto spare
// live servers. It returns the IDs of servers newly declared dead.
// pstormd and background local clusters call it on a timer; tests call
// it directly with a chosen clock.
func (m *Master) CheckLiveness(now time.Time) []string {
	if m.stopped.Load() {
		return nil
	}
	m.mu.Lock()
	if !m.leading.Load() {
		// Only the leader, which hears the heartbeats, declares deaths.
		m.mu.Unlock()
		return nil
	}
	var died []string
	for i := range m.cat.Servers {
		s := &m.cat.Servers[i]
		if s.Alive && now.Sub(m.servers[s.Peer.ID].lastBeat) > m.opts.heartbeatTimeout() {
			s.Alive = false
			died = append(died, s.Peer.ID)
			m.cDeaths.Inc()
			m.o.Emit("server_dead", map[string]string{"server": s.Peer.ID})
		}
	}
	if len(died) > 0 {
		m.failoverLocked()
	}
	push, ps := m.commit("liveness"), m.takeAllOwedLocked()
	m.mu.Unlock()
	m.pushImage(push)
	m.pay(ps)
	m.repair()
	return died
}

// owedRPC is one control RPC the catalog still owes: with server empty,
// the role push to a region's primary; else bringing server's copy in
// line with the catalog — fenced if the catalog makes it a follower,
// dropped if it places no copy there, nothing if it is the primary.
type owedRPC struct {
	regionRef
	server string
}

// regionRef names one region.
type regionRef struct {
	table string
	id    int
}

// payment is one owed RPC resolved against the catalog under m.mu.
type payment struct {
	owedRPC
	conn    controlConn
	epoch   int64
	primary bool   // a role push to the catalog's primary
	chain   []Peer // the primary's followers
	drop    bool   // else a fence
}

// takeAllOwedLocked takes every owed RPC for payment.
func (m *Master) takeAllOwedLocked() []payment {
	return m.takeOwedLocked(slices.Collect(maps.Keys(m.owed)))
}

// takeOwedLocked resolves the owed RPCs among keys into payments, in
// sorted order so the RPC sequence, and with it a chaos harness's fault
// schedule, is deterministic. A taken RPC leaves the ledger and its
// region is in flight until pay re-owes what failed. A region in flight
// stays owed for its own choreography's end; an RPC to a dead server
// stays owed for failover to settle; one the catalog no longer needs is
// settled here.
func (m *Master) takeOwedLocked(keys []owedRPC) []payment {
	if !m.leading.Load() {
		return nil // only the leader's catalog is owed anything
	}
	slices.SortFunc(keys, func(a, b owedRPC) int {
		return cmp.Or(strings.Compare(a.table, b.table), cmp.Compare(a.id, b.id), strings.Compare(a.server, b.server))
	})
	var out []payment
	for _, r := range slices.Compact(keys) {
		if !m.owed[r] || m.inFlight[r.regionRef] {
			continue
		}
		p := payment{owedRPC: r, epoch: m.masterEpoch}
		to := r.server
		g, err := m.regionLocked(r.table, r.id)
		switch {
		case err != nil && r.server == "":
			delete(m.owed, r) // region vanished; nothing to push
			continue
		case err != nil:
			p.drop = true
		case r.server == "":
			to, p.primary = g.Primary, true
			for _, f := range g.Followers {
				p.chain = append(p.chain, m.cat.server(f).Peer)
			}
		case r.server == g.Primary:
			delete(m.owed, r) // the role push covers it
			continue
		case !slices.Contains(g.Followers, r.server):
			p.drop = true
		}
		if !m.alive(to) {
			continue
		}
		delete(m.owed, r)
		p.conn = m.servers[to].conn
		out = append(out, p)
	}
	for _, p := range out {
		m.inFlight[p.regionRef] = true
	}
	return out
}

// pay sends taken payments with no lock held, then re-owes each that
// failed — a role push always, a Drop or fence only retryably (a copy
// not hosted is settled) — and lands their regions.
func (m *Master) pay(ps []payment) {
	if len(ps) == 0 {
		return
	}
	errs := make([]error, len(ps))
	for i, p := range ps {
		if p.drop {
			errs[i] = p.conn.Drop(p.table, p.id, p.epoch)
		} else {
			errs[i] = p.conn.SetRole(p.table, p.id, p.primary, p.chain, p.epoch)
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, p := range ps {
		delete(m.inFlight, p.regionRef)
		if err := m.deposeOnStaleLocked(errs[i]); err != nil && (p.server == "" || retryable(err)) {
			m.owed[p.owedRPC] = true
		}
	}
}

// regionsLocked lists every region, tables in name order, so a walk
// that owes RPCs owes them in the same order every run.
func (m *Master) regionsLocked() []*RegionInfo {
	var out []*RegionInfo
	for _, t := range slices.Sorted(maps.Keys(m.cat.Tables)) {
		for i := range m.cat.Tables[t] {
			out = append(out, &m.cat.Tables[t][i])
		}
	}
	return out
}

// failoverLocked walks every region and repairs assignments that name
// dead servers: dead followers are pruned; a dead primary is replaced
// by its first live follower, whose fenced copy is promoted. Only a
// region whose own assignment changed is owed a role push.
func (m *Master) failoverLocked() {
	for _, g := range m.regionsLocked() {
		live := slices.DeleteFunc(g.Followers, func(f string) bool { return !m.alive(f) })
		pruned := len(live) < len(g.Followers)
		g.Followers = live
		switch {
		case m.alive(g.Primary):
			if pruned {
				m.oweLocked(owedRPC{regionRef{g.Table, g.ID}, ""})
			}
		case len(g.Followers) == 0:
			// No live copy; the region is unavailable until an operator
			// restores a server. Leave META pointing at the corpse so
			// clients keep retrying.
		default:
			m.cFailovers.Inc()
			m.o.Emit("failover", map[string]string{
				"table": g.Table, "region": strconv.Itoa(g.ID),
				"from": g.Primary, "to": g.Followers[0],
			})
			m.promoteFollowerLocked(g, g.Followers[0])
		}
	}
}

// promoteFollowerLocked makes follower f the region's primary: f leaves
// the follower list and is owed its new role — serving and the surviving
// chain arrive together, so it never acks a write it does not
// replicate.
func (m *Master) promoteFollowerLocked(g *RegionInfo, f string) {
	g.Primary, g.Followers = f, slices.DeleteFunc(g.Followers, func(id string) bool { return id == f })
	m.oweLocked(owedRPC{regionRef{g.Table, g.ID}, ""})
}

// repair restores the replication factor of under-replicated regions,
// one recruit at a time, each its own choreography; a region in flight
// is skipped, and a failed recruit is retried next round.
func (m *Master) repair() {
	m.mu.Lock()
	var refs []regionRef
	for _, g := range m.regionsLocked() {
		refs = append(refs, regionRef{g.Table, g.ID})
	}
	m.mu.Unlock()
	for _, ref := range refs {
		for m.recruitOne(ref) {
		}
	}
}

// recruitOne recruits one live server that holds no copy of ref's
// region as a follower, if the region is short of copies; it reports
// whether it did.
func (m *Master) recruitOne(ref regionRef) bool {
	m.mu.Lock()
	g, err := m.regionLocked(ref.table, ref.id)
	alive := m.aliveIDs()
	cand := ""
	if err == nil && m.leading.Load() && len(alive) >= 2 && m.alive(g.Primary) && len(g.Followers)+1 < m.opts.replication() {
		cand = m.pickCandidateLocked(g, alive)
	}
	var plan RegionInfo
	var f *flight
	if cand != "" {
		plan, f, err = m.beginLocked(g)
	}
	m.mu.Unlock()
	if cand == "" || err != nil {
		return false
	}
	_, err = f.recruit(&plan, cand)
	m.mu.Lock()
	push, ps, err := m.finishLocked(plan, f, err, "rereplicate", func(g *RegionInfo) []owedRPC {
		g.Followers = append(g.Followers, cand)
		m.cRepairs.Inc()
		m.o.Emit("rereplicate", map[string]string{
			"table": g.Table, "region": strconv.Itoa(g.ID), "to": cand,
		})
		return nil
	})
	m.mu.Unlock()
	m.pushImage(push)
	m.pay(ps)
	return err == nil
}

// CheckHealth polls every live server's Health report and rebuilds
// region copies the servers have quarantined after checksum failures.
// The polling happens outside the catalog lock — a hung server must
// not stall heartbeats — and the resulting rebuilds re-validate the
// catalog under the lock. It returns the number of copies rebuilt (or
// evicted; re-replication restores the copy count on the next
// CheckLiveness round). pstormd and background local clusters call it
// alongside CheckLiveness; deterministic tests call it directly.
func (m *Master) CheckHealth() int {
	if m.stopped.Load() || !m.IsLeader() {
		return 0
	}
	type probe struct {
		id   string
		conn controlConn
	}
	m.mu.Lock()
	var probes []probe
	for _, id := range m.aliveIDs() {
		probes = append(probes, probe{id, m.servers[id].conn})
	}
	m.mu.Unlock()

	type finding struct {
		server string
		q      hstore.QuarantinedRegion
	}
	var findings []finding
	quarantined := make(map[string]map[string]bool) // regionKey -> servers with a bad copy
	for _, p := range probes {
		h, err := p.conn.Health()
		if err != nil {
			continue // dead or unreachable: the liveness path owns that case
		}
		for _, q := range h.Quarantined {
			findings = append(findings, finding{p.id, q})
			k := regionKey(q.Table, q.RegionID)
			if quarantined[k] == nil {
				quarantined[k] = make(map[string]bool)
			}
			quarantined[k][p.id] = true
		}
	}
	m.mu.Lock()
	rebuilt := 0
	for _, f := range findings {
		if m.rebuildQuarantinedLocked(f.server, f.q.Table, f.q.RegionID, quarantined[regionKey(f.q.Table, f.q.RegionID)]) {
			rebuilt++
		}
	}
	push, ps := m.commit("quarantine_rebuild"), m.takeAllOwedLocked()
	m.mu.Unlock()
	m.pushImage(push)
	m.pay(ps)
	return rebuilt
}

// rebuildQuarantinedLocked evicts one quarantined region copy: a
// quarantined primary hands off to a healthy follower (promotion, as in
// failover) and a quarantined follower is pruned; either way the
// corrupt copy is owed a Drop (the copy stays quarantined meanwhile, so
// it is never read) and re-replication restores the copy count from the
// surviving healthy data. badCopies names every server whose copy of
// this region is also quarantined, so promotion never picks a copy that
// is corrupt too.
func (m *Master) rebuildQuarantinedLocked(server, table string, regionID int, badCopies map[string]bool) bool {
	g, err := m.regionLocked(table, regionID)
	if err != nil {
		return false // table or region vanished since the poll
	}
	if g.Primary == server {
		i := slices.IndexFunc(g.Followers, func(f string) bool { return m.alive(f) && !badCopies[f] })
		if i < 0 {
			// No healthy replica to rebuild from; the region stays
			// unavailable (reads keep failing retryable) rather than
			// serving corrupt bytes.
			return false
		}
		m.promoteFollowerLocked(g, g.Followers[i])
	} else {
		i := slices.Index(g.Followers, server)
		if i < 0 {
			return false // already evicted
		}
		g.Followers = slices.Delete(g.Followers, i, i+1)
		m.oweLocked(owedRPC{regionRef{table, regionID}, ""})
	}
	m.oweLocked(owedRPC{regionRef{table, regionID}, server})
	m.cRebuilds.Inc()
	m.o.Emit("quarantine_rebuild", map[string]string{
		"table": table, "region": strconv.Itoa(regionID), "server": server,
	})
	return true
}

// pickCandidateLocked chooses a live server that holds no copy of g,
// preferring the one with the fewest primary regions.
func (m *Master) pickCandidateLocked(g *RegionInfo, alive []string) string {
	holds := map[string]bool{g.Primary: true}
	for _, f := range g.Followers {
		holds[f] = true
	}
	counts := m.cat.primaryCounts()
	best := ""
	for _, id := range alive {
		if holds[id] {
			continue
		}
		if best == "" || counts[id] < counts[best] {
			best = id
		}
	}
	return best
}

// MoveRegion moves a region's primary to another live server and
// returns the snapshot bytes shipped. There is one choreography, its
// RPCs sent with no lock held while the region is in flight: a target
// that holds no copy is first recruited as a follower (the source keeps
// serving while the snapshot ships), then the roles flip — demote the
// source, which drains its in-flight writes into a chain that includes
// the target, and push the target its role — and only then is the swap
// committed. A target that already follows the region skips the recruit
// and ships zero bytes; a recruited one takes the source's place, and
// the source copy is dropped. An error means the catalog is as it was
// and the source has been told to serve again. A region already in
// flight, or changed by a failover while this move was, returns a
// retryable error.
func (m *Master) MoveRegion(table string, regionID int, to string) (int64, error) {
	if m.stopped.Load() {
		return 0, errMasterStopped
	}
	m.mu.Lock()
	var plan RegionInfo
	var f *flight
	g, err := m.regionLocked(table, regionID)
	switch {
	case !m.leading.Load():
		err = m.notLeaderLocked()
	case err != nil:
	case !m.alive(to):
		err = fmt.Errorf("dstore: move target %q not a live server", to)
	case to != g.Primary:
		plan, f, err = m.beginLocked(g)
	}
	m.mu.Unlock()
	if f == nil {
		return 0, err
	}
	from, after := plan.Primary, slices.Clone(plan.Followers)
	kind, moved := "full", int64(0)
	if i := slices.Index(after, to); i >= 0 {
		kind, after[i] = "flip", from
	} else {
		moved, err = f.recruit(&plan, to)
	}
	if err == nil {
		err = f.setRole(&plan, from, false, nil)
	}
	if err == nil {
		err = f.setRole(&plan, to, true, after)
	}
	m.mu.Lock()
	push, ps, err := m.finishLocked(plan, f, err, "move", func(g *RegionInfo) []owedRPC {
		g.Primary, g.Followers = to, after
		m.cMoves.Inc()
		m.o.Emit("move", map[string]string{
			"table": table, "region": strconv.Itoa(regionID),
			"from": from, "to": to, "kind": kind,
		})
		if kind == "full" {
			return []owedRPC{{regionRef{table, regionID}, from}}
		}
		return nil
	})
	m.mu.Unlock()
	m.pushImage(push)
	m.pay(ps)
	if err != nil {
		return 0, err
	}
	return moved, nil
}

func (m *Master) regionLocked(table string, regionID int) (*RegionInfo, error) {
	regions, ok := m.cat.Tables[table]
	if !ok {
		return nil, fmt.Errorf("dstore: table %q does not exist", table)
	}
	for i := range regions {
		if regions[i].ID == regionID {
			return &regions[i], nil
		}
	}
	return nil, fmt.Errorf("dstore: region %d not in table %q", regionID, table)
}

// ServerStatus is one row of the master's operator view.
type ServerStatus struct {
	Peer      Peer      `json:"peer"`
	Alive     bool      `json:"alive"`
	LastBeat  time.Time `json:"last_beat"`
	Primaries int       `json:"primaries"`
	Follows   int       `json:"follows"`
}

// Status reports per-server liveness and region counts from the newest
// committed image.
func (m *Master) Status() []ServerStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.journal.image().clone()
	follows := make(map[string]int)
	for _, regions := range st.Tables {
		for _, g := range regions {
			for _, f := range g.Followers {
				follows[f]++
			}
		}
	}
	counts := st.primaryCounts()
	out := make([]ServerStatus, 0, len(st.Servers))
	for _, s := range st.Servers {
		row := ServerStatus{Peer: s.Peer, Alive: s.Alive, Primaries: counts[s.Peer.ID], Follows: follows[s.Peer.ID]}
		if mem := m.servers[s.Peer.ID]; mem != nil {
			row.LastBeat = mem.lastBeat
		}
		out = append(out, row)
	}
	return out
}

// Start runs the control loop on a background timer (half the
// heartbeat timeout): election/lease upkeep first, then liveness and
// health — the latter two are no-ops on standbys. Close stops it.
func (m *Master) Start() {
	go func() {
		t := time.NewTicker(m.opts.heartbeatTimeout() / 2)
		defer t.Stop()
		for {
			select {
			case <-m.loopStop:
				return
			case <-t.C:
				m.ElectionTick(m.now())
				m.CheckLiveness(m.now())
				m.CheckHealth()
			}
		}
	}()
}

// Close stops the background liveness loop.
func (m *Master) Close() {
	m.loopOnce.Do(func() { close(m.loopStop) })
}
