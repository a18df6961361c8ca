// Package dstore turns the single-process hstore into a deployable
// cluster — the shape the paper assumes when it puts the profile store
// on HBase so every job on a shared cluster can feed and probe it (§5).
//
// Topology (HBase's, miniaturized):
//
//   - one Master owns the META catalog: the key-range regions of every
//     table and which region server is primary (serving) and which are
//     followers (fenced replicas) for each. It tracks server liveness
//     through heartbeats, promotes a follower when a primary's
//     heartbeat lapses, re-replicates under-replicated regions, and
//     moves regions between servers (export snapshot → install → flip
//     META → drop source). The catalog is one image that every
//     mutation changes through one commit: journaled, pushed to
//     standby masters, and served as META. The catalog lock is never
//     held across an RPC. A standby serves the newest image it holds
//     and promotes when the leader's lease lapses.
//
//   - N RegionServers, each wrapping an hstore.Server that hosts a
//     subset of regions. The primary copy of a region is serving;
//     follower copies are fenced. Writes are replicated synchronously:
//     the primary stamps the cell, applies it locally, and forwards the
//     identical cell to every follower before acking — so a promoted
//     follower has every acked write.
//
//   - a routing Client holding a client-side META cache. Operations
//     route to the primary of the owning region; on NotServing (stale
//     route: the region moved or is fenced) or a dead-server transport
//     error, the client refreshes META from the master and retries with
//     backoff, redoing only the part of the operation that failed.
//     Multi-row reads and writes are batched per region server.
//
// Everything runs over two interchangeable transports: direct in-process
// calls (tests, benchmarks, pstorm.Open) and HTTP/JSON (cmd/pstormd),
// chosen per Peer by whether it carries an address.
//
// Consistency caveats (documented, deliberate): replication carries no
// epoch fencing, so a primary that is slow — rather than dead — can
// apply a straggler write to followers after a promotion; and a region
// move re-acks in-flight batches, so retried batch writes may re-apply
// rows with a newer timestamp. Both keep acked data readable (no lost
// rows); neither provides linearizability across failover. The paper's
// workload (append-mostly profiles keyed by unique job IDs) never
// notices.
package dstore

import (
	"cmp"
	"errors"
	"fmt"

	"pstorm/internal/hstore"
	"pstorm/internal/httperr"
)

// Peer identifies one region server. Addr empty means in-process (the
// shared Registry resolves the ID); non-empty means HTTP at that base
// URL.
type Peer struct {
	ID   string `json:"id"`
	Addr string `json:"addr,omitempty"`
}

// RegionInfo is one META catalog entry: a key range and who serves it.
type RegionInfo struct {
	ID        int      `json:"id"`
	Table     string   `json:"table"`
	StartKey  string   `json:"start_key"`
	EndKey    string   `json:"end_key"`
	Primary   string   `json:"primary"`
	Followers []string `json:"followers,omitempty"`
}

// Meta is the routing view a client caches: catalog plus the peer list
// needed to reach the named servers. Epoch increments on every change,
// so a client can tell a refreshed view from the one that just failed.
type Meta struct {
	Epoch   int64                   `json:"epoch"`
	Tables  map[string][]RegionInfo `json:"tables"`
	Servers []Peer                  `json:"servers"`
}

// HealthReport is a region server's self-diagnosis, polled by the
// master: region copies quarantined after checksum failures.
type HealthReport struct {
	Quarantined []hstore.QuarantinedRegion `json:"quarantined,omitempty"`
}

// NotLeaderError is a standby master's answer to a control-plane call
// it does not own: only the leader mutates META. It carries the best
// leader hint the standby has — ID for in-process clusters, Addr for
// the HTTP wire — so a multi-master conn can redirect instead of
// scanning the peer list. Either hint (or both) may be empty when the
// standby itself has lost track of the leader mid-election.
type NotLeaderError struct {
	LeaderID   string
	LeaderAddr string
}

// Unwrap is the redirect's wire form: not_leader, with the best hint —
// an address when the standby knows one (HTTP deployments), else the
// leader's ID — as the whole message.
func (e *NotLeaderError) Unwrap() error {
	return &httperr.Error{Code: httperr.CodeNotLeader, Message: cmp.Or(e.LeaderAddr, e.LeaderID)}
}

func (e *NotLeaderError) Error() string {
	switch {
	case e.LeaderAddr != "":
		return "dstore: not the leader (leader at " + e.LeaderAddr + ")"
	case e.LeaderID != "":
		return "dstore: not the leader (leader is " + e.LeaderID + ")"
	}
	return "dstore: not the leader (no leader known)"
}

// IsNotLeader reports whether err is a standby's NotLeader redirect.
func IsNotLeader(err error) bool {
	var nl *NotLeaderError
	return errors.As(err, &nl)
}

// ErrStaleMaster is a region server's rejection of a control-plane RPC
// stamped with a master epoch older than the highest it has observed:
// the caller is a deposed leader and must step down, not retry. It is
// deliberately not in retryable() — fencing is permanent for that
// master epoch.
var ErrStaleMaster = httperr.Errorf(httperr.CodeStaleMaster, "dstore: stale master epoch")

// ErrUnknownServer is the master's answer to a heartbeat from a server
// absent from its catalog — typically one whose Join was acked by a
// soon-deposed leader and lost on failover. It is deliberately not in
// retryable(): retrying the same heartbeat can never register the
// server. The heartbeat loop reacts by re-issuing Join instead.
var ErrUnknownServer = httperr.Errorf(httperr.CodeUnknownServer, "dstore: unknown server")

// errNoLeader marks a multi-master conn that exhausted its whole peer
// list without reaching a leader — the takeover window, when the old
// leader is dead and no standby has promoted yet. It is retryable, and
// it is a masterOutage, so the routing client's retry loop does not
// charge it against the per-op attempt budget (the caller's deadline
// and topoRestartCap still bound the wait): a client should survive any
// takeover its deadline allows, not give up because the window spanned
// more RPC attempts than a region failover would.
var errNoLeader = httperr.Errorf(httperr.CodeUnavailable, "dstore: no master reachable or leading")

// errStopped marks operations against a stopped (simulated-dead)
// region server; it is retryable, like a connection refused.
var errStopped = httperr.Errorf(httperr.CodeUnavailable, "dstore: region server stopped")

// errMasterStopped is errStopped for a master; %.0w wraps it unprinted.
var errMasterStopped = fmt.Errorf("dstore: master stopped%.0w", errStopped)

// errTransport wraps network-level failures of the HTTP transport.
var errTransport = httperr.Errorf(httperr.CodeUnavailable, "dstore: transport error")

// errReplication wraps a primary's failure to reach a follower; the
// client retries while the master prunes the dead follower.
var errReplication = httperr.Errorf(httperr.CodeUnavailable, "dstore: replication failed")

// errRegionBusy refuses a region choreography while another has the
// region in flight, or fails one whose region a failover changed
// meanwhile; it is retryable — the region is there to move once the
// other lands.
var errRegionBusy = httperr.Errorf(httperr.CodeUnavailable, "dstore: region busy")

// ErrInjected marks a fault deliberately injected by a chaos harness
// (internal/chaos): a dropped request, a partition, a forced timeout.
// It is retryable — from the client's perspective an injected fault is
// indistinguishable from a flaky network, and must heal the same way.
var ErrInjected = httperr.Errorf(httperr.CodeUnavailable, "dstore: injected fault")

// ErrExhausted marks a routing-client operation that kept hitting
// retryable failures until its attempt budget ran out. It wraps the
// final retryable error, so errors.Is distinguishes "gave up after N
// attempts" (a cluster liveness problem — nothing healed while the
// client retried) from a non-retryable store error, which surfaces
// unwrapped.
var ErrExhausted = httperr.Errorf(httperr.CodeUnavailable, "dstore: retry attempts exhausted")

// retryable reports whether the routing client should refresh META and
// retry after err: stale routes (NotServing), dead or unreachable
// servers, and failed replication all heal through the master.
func retryable(err error) bool {
	return hstore.IsNotServing(err) ||
		errors.Is(err, errStopped) ||
		errors.Is(err, errTransport) ||
		errors.Is(err, errReplication) ||
		errors.Is(err, errRegionBusy) ||
		errors.Is(err, ErrInjected) ||
		errors.Is(err, errBreakerOpen) ||
		errors.Is(err, errNoLeader) ||
		IsNotLeader(err)
}

// masterOutage reports a retryable failure that is the control plane's
// fault, not the data plane's: no leader reachable, or a stale leader
// hint. The routing client's retry loop does not charge these against
// the attempt budget — the caller's deadline and topoRestartCap still
// bound the wait — so a master takeover costs wall-clock time, never op
// attempts.
func masterOutage(err error) bool {
	return errors.Is(err, errNoLeader) || IsNotLeader(err)
}

func regionKey(table string, regionID int) string {
	return fmt.Sprintf("%s/%d", table, regionID)
}
