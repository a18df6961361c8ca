package dstore

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"time"

	"pstorm/internal/hstore"
)

// Lease-based master election. Every master — leader or standby — runs
// ElectionTick on its liveness timer: leaders ping their peers to learn
// whether a higher master epoch has superseded them, standbys ping to
// track the leader's lease, pull its latest catalog image, and promote
// when the lease lapses.
//
// The election is deterministic under an injected clock: liveness is
// "pinged successfully within LeaseDuration", and contention between
// standbys goes to the one holding the newest catalog image, ties
// broken by a seeded rank (splitmix64 of the master ID), so a test
// driving the same tick sequence always elects the same master. A
// leader that sees a peer hold an image of a later reign steps down.
//
// Safety does not rest on the election itself but on epoch fencing:
// a promoting master mints masterEpoch = term*len(electorate)+ownIndex,
// so two masters — even promoted concurrently across a partition — can
// never mint the same epoch, and region servers reject control RPCs
// below the highest epoch they have seen (ErrStaleMaster). A partition
// can thus produce two *candidates*, never two effective leaders at one
// epoch: the first fencing sweep settles which one the region servers
// obey, and the loser steps down on its first rejected RPC or ping.
//
// META replication is latest-image-wins, not log shipping: every
// journal record is a full catalog image, so a peer only ever needs the
// newest, and images are totally ordered (metaVersion). The leader
// pushes each new image to every standby seen alive within a lease
// before the mutation acks (pushImageLocked); standbys also pull once
// per tick as catch-up and repair. The push is availability-first, not
// a quorum write: with every standby unreachable the leader still acks,
// and mutations acked in that state live only in the leader's own
// durable journal until it (or its disk) comes back — the residual,
// deliberate loss window of this design.

// Master roles.
const (
	roleLeader  = "leader"
	roleStandby = "standby"
)

// PeerStatus is one master's answer to a peer ping — enough for the
// caller to track leases, epochs, leader hints, and how fresh a catalog
// the sender holds: (ImageMasterEpoch, MetaEpoch) is its held image's
// version.
type PeerStatus struct {
	ID               string `json:"id"`
	Role             string `json:"role"`
	MasterEpoch      int64  `json:"master_epoch"`
	MetaEpoch        int64  `json:"meta_epoch"`
	ImageMasterEpoch int64  `json:"image_master_epoch"`
	LeaderID         string `json:"leader_id,omitempty"`
	LeaderAddr       string `json:"leader_addr,omitempty"`
}

// MasterPeerConn is how one master reaches another: lease pings, a
// pull that returns the peer's image only if newer than the version
// the caller holds, and a push of one image. Like ServerConn it is
// transport-agnostic — a *Master is its own in-process conn, HTTP for
// pstormd.
type MasterPeerConn interface {
	Ping(from string) (PeerStatus, error)
	PullImage(masterEpoch, epoch int64) (MetaImage, error)
	PushImage(from string, img MetaImage) error
}

// ConnectMasterPeer returns a MasterPeerConn bound to an in-process
// master — the default peer transport of local clusters.
func ConnectMasterPeer(m *Master) MasterPeerConn { return m }

// MetaImage is what masters exchange: one framed journal record (the
// file's codec, checksum included) carrying a full catalog image. An
// empty Frame answers a pull whose caller already holds the newest.
type MetaImage struct {
	Frame []byte `json:"frame,omitempty"`
}

// metaVersion orders catalog images, master epoch first. The order is
// total and safe to take the maximum of: distinct masters mint distinct
// master epochs (mintEpochLocked), commit bumps the META epoch of every
// image that changed, and region servers obey the greater master epoch
// whatever META epoch an older reign reached (DESIGN.md § Control-plane
// HA).
type metaVersion struct{ masterEpoch, epoch int64 }

func (v metaVersion) newerThan(o metaVersion) bool {
	return v.masterEpoch > o.masterEpoch || (v.masterEpoch == o.masterEpoch && v.epoch > o.epoch)
}

// version is the image's place in the order (zero for no image).
func (st *metaState) version() metaVersion {
	if st == nil {
		return metaVersion{}
	}
	return metaVersion{st.MasterEpoch, st.Epoch}
}

// peerSeen is the last successful contact with a master peer and the
// held-image version it last reported.
type peerSeen struct {
	at   time.Time
	held metaVersion
}

// Ping answers a peer's lease probe with this master's view. The probe
// itself is evidence of the pinger's liveness, so it refreshes the
// pinger's lease here too — leader and standby leases stay symmetric
// even when one side's outbound pings are partitioned away.
func (m *Master) Ping(from string) (PeerStatus, error) {
	if m.stopped.Load() {
		return PeerStatus{}, errStopped
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if from != "" && from != m.id {
		p := m.seen[from]
		p.at = m.now()
		m.seen[from] = p
	}
	return m.statusLocked(), nil
}

func (m *Master) statusLocked() PeerStatus {
	v := m.journal.image().version()
	return PeerStatus{
		ID:               m.id,
		Role:             m.Role(),
		MasterEpoch:      m.masterEpoch,
		MetaEpoch:        v.epoch,
		ImageMasterEpoch: v.masterEpoch,
		LeaderID:         m.leaderID,
		LeaderAddr:       m.leaderAddr,
	}
}

// HAStatus is the /m/status operator view: the peer-visible election
// state plus journal health.
type HAStatus struct {
	PeerStatus
	JournalBytes int64 `json:"journal_bytes"`
}

// HAStatus reports this master's election and journal state.
func (m *Master) HAStatus() (HAStatus, error) {
	if m.stopped.Load() {
		return HAStatus{}, errStopped
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return HAStatus{PeerStatus: m.statusLocked(), JournalBytes: m.journal.size()}, nil
}

// PullImage serves the held image if it is newer than the version the
// caller holds — the /m/image endpoint standbys poll once a tick.
func (m *Master) PullImage(masterEpoch, epoch int64) (MetaImage, error) {
	if m.stopped.Load() {
		return MetaImage{}, errStopped
	}
	m.cJournalTails.Inc()
	st := m.journal.image()
	if !st.version().newerThan(metaVersion{masterEpoch, epoch}) {
		return MetaImage{}, nil
	}
	framed, err := frameRecord(journalRecord{Kind: "image", State: *st})
	return MetaImage{Frame: framed}, err
}

// PushImage receives a leader's synchronous replication (the
// /m/image/push handler) and, on a standby, the answer to its own pull.
// It deliberately touches only leaf locks — never the catalog lock — so
// a push can never stall behind (or deadlock against) a local catalog
// operation, even with two partitioned leaders pushing at each other.
// A standby serves the held image as META at once, and promotion builds
// its catalog from it. A frame that fails its checksum or is not
// exactly one record is rejected and changes nothing.
func (m *Master) PushImage(from string, img MetaImage) error {
	if m.stopped.Load() {
		return errStopped
	}
	rec, n, err := decodeFrame(img.Frame)
	if err == nil && n != len(img.Frame) {
		err = &hstore.CorruptionError{Detail: fmt.Sprintf("META image has %d trailing bytes", len(img.Frame)-n)}
	}
	if err != nil {
		m.o.Emit("image_rejected", map[string]string{"from": from, "error": err.Error()})
		return err
	}
	return m.keepImage(rec, img.Frame, true)
}

// keepImage appends one image to this master's own journal and makes it
// the held one — leader commits and accepted peer images alike. A peer
// image is refused while leading (a leader's own history is
// authoritative, so two partitioned leaders never overwrite each
// other) and dropped unless strictly newer than the held one, so the
// held version never decreases; the slot's lock spans the append, so
// the file keeps that order and a restart recovers the newest image
// acknowledged. A failed append is reported but the image is still
// held: it is the freshest catalog this process knows.
func (m *Master) keepImage(rec journalRecord, framed []byte, fromPeer bool) error {
	j := m.journal
	j.mu.Lock()
	defer j.mu.Unlock()
	if fromPeer {
		if m.leading.Load() {
			return fmt.Errorf("dstore: image push refused: %s is leading", m.id)
		}
		if !rec.State.version().newerThan(j.held.version()) {
			return nil
		}
	}
	if framed != nil && m.opts.JournalDir != "" {
		checkpointed, err := j.appendLocked(rec, framed)
		if err != nil {
			m.o.Emit("journal_error", map[string]string{"kind": rec.Kind, "error": err.Error()})
		} else {
			m.cJournalAppends.Inc()
			if checkpointed {
				m.cJournalCheckpoints.Inc()
			}
		}
	}
	j.held = &rec.State
	return nil
}

// rankOf is a master's seeded election rank; the lowest-ranked live
// standby wins a contested promotion. Hashing the ID through splitmix64
// decouples rank from lexical order (so "m-0" holds no structural
// advantage) while staying reproducible for a given Seed.
func (m *Master) rankOf(id string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return uint64(splitmix64(m.opts.Seed ^ int64(h.Sum64())))
}

// outranksMe reports whether peer id beats this master in an election
// (lower rank wins; ties break to the lower ID).
func (m *Master) outranksMe(id string) bool {
	r, mine := m.rankOf(id), m.rankOf(m.id)
	return r < mine || (r == mine && id < m.id)
}

// peerConnLocked lazily resolves the conn to a master peer.
func (m *Master) peerConnLocked(id string) (MasterPeerConn, error) {
	if c, ok := m.peerConns[id]; ok {
		return c, nil
	}
	var peer Peer
	found := false
	for _, p := range m.opts.Peers {
		if p.ID == id {
			peer, found = p, true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("dstore: unknown master peer %q", id)
	}
	var c MasterPeerConn
	var err error
	if m.opts.PeerResolver != nil {
		c, err = m.opts.PeerResolver(peer)
	} else if peer.Addr != "" {
		c = DialMasterPeer(peer.Addr, m.reg.Timeout)
	} else {
		err = fmt.Errorf("dstore: master peer %q has no address and no resolver", id)
	}
	if err != nil {
		return nil, err
	}
	m.peerConns[id] = c
	return c, nil
}

// ElectionTick advances the lease state machine one step at the given
// instant: ping peers, pull the leader's image when standby, step
// down if superseded, promote if the lease has lapsed and no
// better-ranked standby is alive. pstormd and background local clusters
// call it on the liveness timer; deterministic tests drive it directly
// with an injected clock.
func (m *Master) ElectionTick(now time.Time) {
	if m.stopped.Load() || !m.haEnabled() {
		return
	}

	// Resolve the peer set under the lock, ping outside it: a hung peer
	// must not stall META serving or heartbeat handling.
	type peerView struct {
		id  string
		st  PeerStatus
		err error
	}
	m.mu.Lock()
	ids := make([]string, 0, len(m.electorate)-1)
	conns := make([]MasterPeerConn, 0, cap(ids))
	for _, id := range m.electorate {
		if id == m.id {
			continue
		}
		c, err := m.peerConnLocked(id)
		if err != nil {
			continue
		}
		ids = append(ids, id)
		conns = append(conns, c)
	}
	if m.electionGrace.IsZero() {
		// First tick: grant every peer one full lease of silence before
		// anyone may be presumed dead, so a cold-started standby does not
		// promote over a leader it simply has not met yet.
		m.electionGrace = now.Add(m.leaseDuration())
	}
	m.mu.Unlock()

	views := make([]peerView, len(ids))
	for i, id := range ids {
		st, err := conns[i].Ping(m.id)
		views[i] = peerView{id: id, st: st, err: err}
	}

	// Fold the ping results into the lease table and the leader hint.
	var pullFrom MasterPeerConn
	m.mu.Lock()
	supersededBy := int64(0)
	okPings := 0
	for _, v := range views {
		if v.err != nil {
			continue
		}
		okPings++
		m.seen[v.id] = peerSeen{at: now, held: metaVersion{v.st.ImageMasterEpoch, v.st.MetaEpoch}}
		m.maxSeenMasterEpoch = max(m.maxSeenMasterEpoch, v.st.MasterEpoch, v.st.ImageMasterEpoch)
		if v.st.MasterEpoch > m.masterEpoch && v.st.Role == roleLeader {
			supersededBy = v.st.MasterEpoch
		}
		if v.st.ImageMasterEpoch > m.masterEpoch {
			// A peer holds an image a later reign wrote: that reign may
			// have fenced the region servers, and its catalog is newer.
			supersededBy = v.st.ImageMasterEpoch
		}
		if v.st.Role == roleLeader && (!m.leading.Load() || v.st.MasterEpoch > m.masterEpoch) {
			m.leaderID, m.leaderAddr = v.st.ID, v.st.LeaderAddr
			if m.leaderAddr == "" {
				m.leaderAddr = m.peerAddr(v.st.ID)
			}
		}
		if v.id == m.leaderID && v.st.Role != roleLeader {
			// The believed leader says it is not (restarted as a standby,
			// or deposed): its pings must not keep a leader's lease fresh.
			m.leaderID, m.leaderAddr = "", ""
		}
	}
	if m.leading.Load() && supersededBy > 0 {
		m.stepDownLocked("superseded by epoch " + strconv.FormatInt(supersededBy, 10))
	}
	pullID := ""
	if !m.leading.Load() && m.leaderID != "" && m.leaderID != m.id {
		for i, id := range ids {
			if id == m.leaderID && views[i].err == nil {
				pullFrom, pullID = conns[i], id
				break
			}
		}
	}
	// fullView: every electorate peer answered this very tick. For a
	// cold-started standby (fastElect) the grace wait is then pure
	// delay — if any peer led (or outranked us), blockedLocked sees its
	// fresh lease and blocks anyway. This is what lets a restarted
	// cluster, whose masters all boot as standbys now, elect on the
	// first tick instead of serving nothing for a full lease. A deposed
	// leader never takes this path: stepdown clears fastElect so the
	// tick that deposed it cannot also re-promote it.
	fullView := m.fastElect && okPings == len(m.electorate)-1
	m.mu.Unlock()

	// Standby: pull the leader's image if it is newer than the one held
	// — outside the lock, it is an RPC.
	if pullFrom != nil {
		have := m.journal.image().version()
		if img, err := pullFrom.PullImage(have.masterEpoch, have.epoch); err == nil && len(img.Frame) > 0 {
			m.PushImage(pullID, img) //nolint:errcheck — a rejected image is emitted there; the next tick pulls again
		}
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.leading.Load() && (fullView || !now.Before(m.electionGrace)) && !m.blockedLocked(now) {
		m.promoteLocked(now)
	}
}

// blockedLocked reports whether a standby must defer promotion: the
// known leader's lease is still fresh, or a peer alive within a lease
// would win the election — it holds a newer image, or the same one and
// outranks this master. Version and rank are one order, so two
// standbys can never defer to each other.
func (m *Master) blockedLocked(now time.Time) bool {
	lease := m.leaseDuration()
	mine := m.journal.image().version()
	for _, id := range m.electorate {
		p, ok := m.seen[id]
		if id == m.id || !ok || now.Sub(p.at) > lease {
			continue
		}
		if id == m.leaderID || p.held.newerThan(mine) || (p.held == mine && m.outranksMe(id)) {
			return true
		}
	}
	return false
}

// mintEpochLocked starts this master's next reign at a fresh fencing
// epoch, above every epoch seen: term*n + index over the lexically
// sorted electorate (never empty — it includes this master). Distinct
// masters occupy distinct residues mod n, so no two masters can ever
// mint the same epoch — the "never two leaders at the same epoch"
// invariant is arithmetic, not protocol.
func (m *Master) mintEpochLocked() {
	n := int64(len(m.electorate))
	idx := int64(0)
	for i, id := range m.electorate {
		if id == m.id {
			idx = int64(i)
			break
		}
	}
	term := m.maxSeenMasterEpoch/n + 1
	e := term*n + idx
	for e <= m.maxSeenMasterEpoch {
		term++
		e = term*n + idx
	}
	m.masterEpoch, m.cat.MasterEpoch, m.maxSeenMasterEpoch = e, e, e
}

// promoteLocked turns this standby into the leader: build the working
// catalog from the held image, mint a fencing epoch, commit the
// takeover, and re-push every region's role at the new epoch so every
// region server's epoch floor rises past any deposed leader.
func (m *Master) promoteLocked(now time.Time) {
	// Seal the held slot against peer images first — from here this
	// history is authoritative — so the image read next is final.
	m.leading.Store(true)
	m.cat = m.journal.image().clone()
	m.resolveConnsLocked(now)
	m.cat.LeaderID, m.maxSeenMasterEpoch = m.id, max(m.maxSeenMasterEpoch, m.cat.MasterEpoch)
	m.mintEpochLocked()
	m.fastElect = false
	m.leaderID, m.leaderAddr = m.id, m.peerAddr(m.id)
	for _, g := range m.regionsLocked() {
		m.owed[owedRPC{regionRef{g.Table, g.ID}, ""}] = true
	}
	m.cElections.Inc()
	m.gLeader.Set(1)
	m.o.Emit("elected", map[string]string{
		"master": m.id, "master_epoch": strconv.FormatInt(m.masterEpoch, 10),
	})
	m.commit("promote")
	m.payOwedLocked()
}

// stepDownLocked demotes a deposed leader to standby. It serves the
// last image it committed (reads keep working); mutations redirect via
// NotLeader until the next leader is known. The grace window re-arms to
// a full lease from now — not to zero — so the tick that deposed this
// master cannot also re-promote it: a deposed leader must wait out a
// whole lease, like any cold-started standby, before running again.
func (m *Master) stepDownLocked(reason string) {
	if !m.leading.Load() {
		return
	}
	m.leading.Store(false)
	m.fastElect = false
	m.leaderID, m.leaderAddr = "", ""
	m.electionGrace = m.now().Add(m.leaseDuration())
	m.cStepdowns.Inc()
	m.gLeader.Set(0)
	m.o.Emit("stepdown", map[string]string{"master": m.id, "reason": reason})
}

// peerAddr returns the wire address of a master peer ("" in-process).
func (m *Master) peerAddr(id string) string {
	for _, p := range m.opts.Peers {
		if p.ID == id {
			return p.Addr
		}
	}
	return ""
}
