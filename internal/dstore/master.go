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
	conn     ServerConn
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
		conn, err := m.reg.Resolve(s.Peer)
		if err != nil {
			conn = &unresolvedConn{id: s.Peer.ID}
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
// META fetches, peer pings, image pulls and pushes — fails with errStopped, and
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

// commit is the one place the catalog changes version. If the working
// catalog differs from the held image outside Epoch, it bumps the
// epoch and keeps a copy: appended to this master's journal, held (and
// so served as META), and pushed to the standbys. Every mutation ends
// here while still holding the catalog lock, so journal order is
// mutation order. A leader deposed mid-mutation (a stale-rejected
// control RPC) writes nothing over what the new leader has pushed it
// since, and a master with neither a journal dir nor peers has nobody
// to tell, so it frames nothing.
func (m *Master) commit(kind string) {
	if !m.leading.Load() || m.cat.sameAs(m.journal.image()) {
		return
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
	if framed != nil && m.haEnabled() {
		m.pushImageLocked(MetaImage{Frame: framed})
	}
}

// pushImageLocked replicates the just-committed image to every standby
// seen alive within a lease, synchronously, before the mutation that
// triggered it acks — whether or not the leader's own append succeeded:
// a failing disk must not also withhold the change from the masters
// that could outlive it. Availability-first, never quorum: an
// unreachable or refusing standby is skipped (counted in
// dstore_master_journal_push_misses_total and emitted) and its per-tick
// pull catches it up.
func (m *Master) pushImageLocked(img MetaImage) {
	now := m.now()
	lease := m.leaseDuration()
	for _, id := range m.electorate {
		if id == m.id {
			continue
		}
		if p, ok := m.seen[id]; !ok || now.Sub(p.at) > lease {
			continue
		}
		c, err := m.peerConnLocked(id)
		if err != nil {
			continue
		}
		if err := c.PushImage(m.id, img); err != nil {
			m.cJournalPushMisses.Inc()
			m.o.Emit("journal_push_miss", map[string]string{"peer": id, "error": err.Error()})
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

// Control-RPC wrappers: every master-driven mutation of a region
// server is stamped with this master's fencing epoch, and a stale
// rejection — the server has already obeyed a newer leader — deposes
// this master on the spot instead of letting it keep mutating a
// catalog nobody obeys. Like the call sites they replaced, they run
// under the catalog lock by design (see the MoveRegion doc).

// depose steps the leader down when a control RPC was rejected stale.
func (m *Master) deposeOnStaleLocked(err error) error {
	if errors.Is(err, ErrStaleMaster) {
		m.stepDownLocked("control RPC rejected: " + err.Error())
	}
	return err
}

func (m *Master) rpcInstall(mem *member, snap *hstore.RegionSnapshot) error {
	return m.deposeOnStaleLocked(mem.conn.Install(snap, m.masterEpoch))
}

// rpcDemote fences mem's copy into a follower; it returns once the
// copy's in-flight writes have reached its whole chain.
func (m *Master) rpcDemote(mem *member, table string, regionID int) error {
	return m.deposeOnStaleLocked(mem.conn.SetRole(table, regionID, false, nil, m.masterEpoch))
}

// pushRoleLocked tells g.Primary what the catalog says: serve, and
// replicate to g.Followers. The catalog is the truth and this is the one
// way a primary learns it, so a push that fails stays owed — payOwedLocked
// retries until the primary acks, and a dropped RPC cannot leave a
// region fenced or a chain stale forever.
func (m *Master) pushRoleLocked(g *RegionInfo) error {
	peers := make([]Peer, 0, len(g.Followers))
	for _, f := range g.Followers {
		peers = append(peers, m.cat.server(f).Peer)
	}
	err := m.deposeOnStaleLocked(m.servers[g.Primary].conn.SetRole(g.Table, g.ID, true, peers, m.masterEpoch))
	m.oweLocked(owedRPC{regionRef{g.Table, g.ID}, ""}, err != nil)
	return err
}

// dropLocked removes server's copy of a region the catalog no longer
// places there. A Drop lost on the way stays owed: the orphan it would
// leave makes Install refuse that region, so every later recruit onto
// the server would fail.
func (m *Master) dropLocked(server, table string, regionID int) {
	err := m.deposeOnStaleLocked(m.servers[server].conn.Drop(table, regionID, m.masterEpoch))
	m.oweLocked(owedRPC{regionRef{table, regionID}, server}, err != nil && retryable(err))
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
		return errStopped
	}
	conn, err := m.reg.Resolve(p)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.leading.Load() {
		return m.notLeaderLocked()
	}
	m.servers[p.ID] = &member{conn: conn, lastBeat: m.now()}
	m.cJoins.Inc()
	if s := m.cat.server(p.ID); s != nil {
		// New incarnation: fail over whatever the old one held, then
		// revive empty. failoverLocked prunes it from every follower set
		// and promotes live followers of its primaries.
		s.Alive = false
		m.failoverLocked()
		*s = journalServer{Peer: p, Alive: true}
		m.o.Emit("rejoin", map[string]string{"server": p.ID})
		m.commit("rejoin")
		return nil
	}
	m.cat.Servers = append(m.cat.Servers, journalServer{Peer: p, Alive: true})
	m.o.Emit("join", map[string]string{"server": p.ID})
	m.commit("join")
	return nil
}

// Heartbeat records liveness for a server, reviving one declared dead.
// Standbys redirect: only the leader's liveness view drives failover.
func (m *Master) Heartbeat(id string) error {
	if m.stopped.Load() {
		return errStopped
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.leading.Load() {
		return m.notLeaderLocked()
	}
	mem, ok := m.servers[id]
	if !ok {
		return fmt.Errorf("%w: heartbeat from %q", ErrUnknownServer, id)
	}
	mem.lastBeat = m.now()
	m.cHeartbeats.Inc()
	if s := m.cat.server(id); !s.Alive {
		s.Alive = true
		m.commit("heartbeat")
	}
	return nil
}

// Meta serves the routing view of the newest committed image.
func (m *Master) Meta() Meta {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.journal.image().meta()
}

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
// splits [k1, k2] yields regions ["", k1), [k1, k2), [k2, "").
func (m *Master) CreateTableSplits(table string, splits []string) error {
	if m.stopped.Load() {
		return errStopped
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.leading.Load() {
		return m.notLeaderLocked()
	}
	// A create that fails half-way still consumed region IDs, and copies
	// under them may exist: commit keeps the counter past them.
	defer m.commit("create_table")
	if _, ok := m.cat.Tables[table]; ok {
		return fmt.Errorf("dstore: table %q already exists", table)
	}
	alive := m.aliveIDs()
	if len(alive) == 0 {
		return fmt.Errorf("dstore: no live region servers")
	}
	repl := m.opts.replication()
	if repl > len(alive) {
		repl = len(alive)
	}
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
		if err := m.installRegionLocked(&g); err != nil {
			return err
		}
		regions = append(regions, g)
	}
	m.cat.Tables[table] = regions
	return nil
}

// emptyCopy is the snapshot a fresh copy of g is installed from.
func emptyCopy(g *RegionInfo) *hstore.RegionSnapshot {
	return &hstore.RegionSnapshot{Table: g.Table, RegionID: g.ID, StartKey: g.StartKey, EndKey: g.EndKey}
}

// installRegionLocked creates the empty, fenced copies of a new region
// on every server the catalog names and hands the primary its role.
func (m *Master) installRegionLocked(g *RegionInfo) error {
	for _, id := range append([]string{g.Primary}, g.Followers...) {
		if err := m.rpcInstall(m.servers[id], emptyCopy(g)); err != nil {
			return fmt.Errorf("dstore: installing region %d on %s: %w", g.ID, id, err)
		}
	}
	return m.pushRoleLocked(g)
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
	defer m.mu.Unlock()
	if !m.leading.Load() {
		// Only the leader, which hears the heartbeats, declares deaths.
		return nil
	}
	defer m.commit("liveness")
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
	m.repairLocked()
	m.payOwedLocked()
	return died
}

// owedRPC is one control RPC the catalog still owes a server: the role
// push to a region's primary (drop empty), or the Drop of the copy on
// server drop, which the catalog no longer places there.
type owedRPC struct {
	regionRef
	drop string
}

// regionRef names one region.
type regionRef struct {
	table string
	id    int
}

// oweLocked records r as owed, or settled.
func (m *Master) oweLocked(r owedRPC, owed bool) {
	if owed {
		m.owed[r] = true
	} else {
		delete(m.owed, r)
	}
}

// payOwedLocked retries every owed RPC, in sorted order so the RPC
// sequence — and with it a chaos harness's fault schedule — is
// deterministic. A Drop answered "not hosted" is settled, and one is
// never sent to a server the catalog places a copy on again.
func (m *Master) payOwedLocked() {
	owed := slices.SortedFunc(maps.Keys(m.owed), func(a, b owedRPC) int {
		return cmp.Or(strings.Compare(a.table, b.table), cmp.Compare(a.id, b.id), strings.Compare(a.drop, b.drop))
	})
	for _, r := range owed {
		g, err := m.regionLocked(r.table, r.id)
		switch {
		case err != nil:
			delete(m.owed, r) // region vanished; nothing owed
		case r.drop == "":
			if m.alive(g.Primary) { // else failover will reassign; keep it owed
				m.pushRoleLocked(g) //nolint:errcheck — stays owed on failure
			}
		case r.drop == g.Primary || slices.Contains(g.Followers, r.drop):
			delete(m.owed, r) // Install found no orphan there since
		case m.alive(r.drop):
			m.dropLocked(r.drop, r.table, r.id)
		}
	}
}

// regionsLocked lists every region, tables in name order, so a walk
// that issues RPCs issues them in the same order every run.
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
// region whose own assignment changed costs an RPC.
func (m *Master) failoverLocked() {
	for _, g := range m.regionsLocked() {
		live := slices.DeleteFunc(g.Followers, func(f string) bool { return !m.alive(f) })
		pruned := len(live) < len(g.Followers)
		g.Followers = live
		switch {
		case m.alive(g.Primary):
			if pruned {
				m.pushRoleLocked(g) //nolint:errcheck — owed on failure
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
// the follower list and is pushed its new role — serving and the
// surviving chain arrive together, so it never acks a write it does not
// replicate.
func (m *Master) promoteFollowerLocked(g *RegionInfo, f string) {
	g.Primary, g.Followers = f, slices.DeleteFunc(g.Followers, func(id string) bool { return id == f })
	m.pushRoleLocked(g) //nolint:errcheck — owed on failure
}

// recruitLocked makes cand, which holds no copy of g, a follower:
// install an empty fenced copy — refused, before anything changes, if
// cand still hosts a copy a Drop has yet to remove, which may hold rows
// deleted since — join the primary's chain (the push drains the
// primary's in-flight writes, so every write from here on reaches cand),
// then backfill it with an export taken after the join. The primary
// serves throughout. It returns the snapshot bytes shipped; on failure
// the catalog and the chain are put back and the copy dropped.
func (m *Master) recruitLocked(g *RegionInfo, cand string) (int64, error) {
	mem := m.servers[cand]
	if err := m.rpcInstall(mem, emptyCopy(g)); err != nil {
		return 0, err
	}
	g.Followers = append(g.Followers, cand)
	var snap *hstore.RegionSnapshot
	err := m.pushRoleLocked(g)
	if err == nil {
		snap, err = m.servers[g.Primary].conn.Export(g.Table, g.ID)
	}
	if err == nil {
		snap.Backfill = true
		err = m.rpcInstall(mem, snap)
	}
	if err != nil {
		g.Followers = g.Followers[:len(g.Followers)-1]
		m.pushRoleLocked(g) //nolint:errcheck — owed on failure
		m.dropLocked(cand, g.Table, g.ID)
		return 0, err
	}
	return snap.Bytes(), nil
}

// repairLocked restores the replication factor of under-replicated
// regions by recruiting live servers that do not yet hold a copy; a
// failed recruit is retried next round.
func (m *Master) repairLocked() {
	repl := m.opts.replication()
	alive := m.aliveIDs()
	if len(alive) < 2 {
		return
	}
	for _, g := range m.regionsLocked() {
		if !m.alive(g.Primary) {
			continue
		}
		for len(g.Followers)+1 < repl {
			cand := m.pickCandidateLocked(g, alive)
			if cand == "" {
				break
			}
			if _, err := m.recruitLocked(g, cand); err != nil {
				break
			}
			m.cRepairs.Inc()
			m.o.Emit("rereplicate", map[string]string{
				"table": g.Table, "region": strconv.Itoa(g.ID), "to": cand,
			})
		}
	}
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
		conn ServerConn
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
	rebuilt := 0
	for _, f := range findings {
		if m.rebuildQuarantined(f.server, f.q.Table, f.q.RegionID, quarantined[regionKey(f.q.Table, f.q.RegionID)]) {
			rebuilt++
		}
	}
	m.mu.Lock()
	m.payOwedLocked()
	m.mu.Unlock()
	return rebuilt
}

// rebuildQuarantined evicts one quarantined region copy: a quarantined
// primary hands off to a healthy follower (promotion, as in failover)
// and a quarantined follower is pruned; either way the corrupt copy is
// dropped from its server and re-replication restores the copy count
// from the surviving healthy data. badCopies names every server whose
// copy of this region is also quarantined, so promotion never picks a
// copy that is corrupt too.
//
// Like MoveRegion, the choreography is atomic under the catalog lock —
// the role push and the META mutation must not interleave with
// concurrent failovers.
func (m *Master) rebuildQuarantined(server, table string, regionID int, badCopies map[string]bool) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	defer m.commit("quarantine_rebuild")
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
		m.pushRoleLocked(g) //nolint:errcheck — owed on failure
	}
	// Drop the corrupt copy; a lost Drop stays owed (the copy stays
	// quarantined meanwhile, so it is never read).
	m.dropLocked(server, table, regionID)
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
// returns the snapshot bytes shipped. There is one choreography: a
// target that holds no copy is first recruited as a follower (the source
// keeps serving while the snapshot ships), then the roles flip — demote
// the source, which drains its in-flight writes into a chain that
// includes the target; swap the catalog; push the target its role. A
// target that already follows the region skips the recruit and ships
// zero bytes; a recruited one takes the source's place, and the source
// copy is dropped. An error means the catalog is as it was and the
// source has been told to serve again.
//
// The whole choreography runs under the catalog lock: the fence, the
// META mutation, and the undo must be atomic with respect to concurrent
// liveness checks and other moves. The known cost is that a slow peer
// stalls heartbeats for the duration of one move; lifting the RPCs out
// requires a per-region move lease and is tracked as future work rather
// than bolted on here.
func (m *Master) MoveRegion(table string, regionID int, to string) (int64, error) {
	if m.stopped.Load() {
		return 0, errStopped
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.leading.Load() {
		return 0, m.notLeaderLocked()
	}
	g, err := m.regionLocked(table, regionID)
	if err != nil {
		return 0, err
	}
	if !m.alive(to) {
		return 0, fmt.Errorf("dstore: move target %q not a live server", to)
	}
	if to == g.Primary {
		return 0, nil
	}
	from := g.Primary
	before, after := slices.Clone(g.Followers), slices.Clone(g.Followers)
	kind, moved := "full", int64(0)
	if i := slices.Index(after, to); i >= 0 {
		kind, after[i] = "flip", from
	}
	if kind == "full" {
		if moved, err = m.recruitLocked(g, to); err != nil {
			return 0, err
		}
	}
	if err = m.rpcDemote(m.servers[from], table, regionID); err == nil {
		g.Primary, g.Followers = to, after
		err = m.pushRoleLocked(g)
	}
	if err != nil {
		g.Primary, g.Followers = from, before
		m.pushRoleLocked(g) //nolint:errcheck — owed on failure
		if kind == "full" {
			m.dropLocked(to, table, regionID)
		}
		return 0, err
	}
	m.cMoves.Inc()
	m.o.Emit("move", map[string]string{
		"table": table, "region": strconv.Itoa(regionID),
		"from": from, "to": to, "kind": kind,
	})
	m.commit("move")
	if kind == "full" {
		m.dropLocked(from, table, regionID)
	}
	return moved, nil
}

// Rebalance evens primary-region counts across live servers with
// promotion flips where possible and full moves otherwise, returning
// total bytes shipped.
func (m *Master) Rebalance() (int64, error) {
	if m.stopped.Load() {
		return 0, errStopped
	}
	var moved int64
	for {
		m.mu.Lock()
		if !m.leading.Load() {
			err := m.notLeaderLocked()
			m.mu.Unlock()
			return moved, err
		}
		counts := m.cat.primaryCounts()
		alive := m.aliveIDs()
		if len(alive) < 2 {
			m.mu.Unlock()
			return moved, nil
		}
		maxID, minID := alive[0], alive[0]
		for _, id := range alive {
			if counts[id] > counts[maxID] {
				maxID = id
			}
			if counts[id] < counts[minID] {
				minID = id
			}
		}
		if counts[maxID]-counts[minID] <= 1 {
			m.mu.Unlock()
			return moved, nil
		}
		// Pick one region of the overloaded server to shed. Capture its
		// identity under the lock; MoveRegion re-locks and re-validates.
		pickTable, pickID := "", 0
		for _, g := range m.regionsLocked() {
			if g.Primary == maxID {
				pickTable, pickID = g.Table, g.ID
				break
			}
		}
		m.mu.Unlock()
		if pickTable == "" {
			return moved, nil
		}
		n, err := m.MoveRegion(pickTable, pickID, minID)
		if err != nil {
			return moved, err
		}
		moved += n
	}
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
