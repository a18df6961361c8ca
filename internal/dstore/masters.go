package dstore

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"
)

// multiMaster is a MasterConn over a list of master candidates. It
// remembers which entry last answered as leader and sends there first;
// on a NotLeader redirect it jumps to the hinted entry, and on a
// transport-level failure it rotates to the next candidate — so
// callers (clients, gateways, region-server heartbeats) never see a
// master takeover, only at worst a brief errNoLeader while the new
// leader settles, which the routing client forgives from its attempt
// budget.
type multiMaster struct {
	entries []masterEntry

	mu   sync.Mutex
	pref int // index of the entry that last behaved like a leader
}

type masterEntry struct {
	id   string
	addr string
	conn MasterConn
}

// ConnectMasters returns a MasterConn that fails over across the given
// in-process masters. With a single master it is equivalent to
// ConnectMaster.
func ConnectMasters(ms ...*Master) MasterConn {
	if len(ms) == 1 {
		return ConnectMaster(ms[0])
	}
	entries := make([]masterEntry, 0, len(ms))
	for _, m := range ms {
		entries = append(entries, masterEntry{id: m.MasterID(), conn: ConnectMaster(m)})
	}
	return &multiMaster{entries: entries}
}

// DialMasters returns a MasterConn that fails over across a
// comma-separated list of master base URLs — the form every `-master`
// flag accepts. A single address degenerates to DialMaster.
func DialMasters(addrs string, timeout time.Duration) MasterConn {
	var entries []masterEntry
	for _, a := range strings.Split(addrs, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		entries = append(entries, masterEntry{addr: a, conn: DialMaster(a, timeout)})
	}
	if len(entries) == 1 {
		return entries[0].conn
	}
	return &multiMaster{entries: entries}
}

func (mm *multiMaster) prefIndex() int {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	if mm.pref < 0 || mm.pref >= len(mm.entries) {
		mm.pref = 0
	}
	return mm.pref
}

func (mm *multiMaster) setPref(i int) {
	mm.mu.Lock()
	mm.pref = i
	mm.mu.Unlock()
}

// findHint maps a NotLeader hint to an entry index, or -1. Addr hints
// contain "://"; anything else is a master ID.
func (mm *multiMaster) findHint(nl *NotLeaderError) int {
	for i, e := range mm.entries {
		if nl.LeaderAddr != "" && e.addr != "" && strings.TrimRight(e.addr, "/") == strings.TrimRight(nl.LeaderAddr, "/") {
			return i
		}
		if nl.LeaderID != "" && e.id == nl.LeaderID {
			return i
		}
	}
	return -1
}

// call runs f against candidates until one succeeds, following leader
// hints and rotating past dead or standby entries. The hop budget is
// 2n+1: enough to visit every entry once, chase one round of stale
// hints, and land on a freshly promoted leader — without looping
// forever when an election is still in flight (that surfaces as
// errNoLeader, which the client retries without spending attempts).
func (mm *multiMaster) call(f func(MasterConn) error) error {
	n := len(mm.entries)
	if n == 0 {
		return fmt.Errorf("%w: empty master list", errNoLeader)
	}
	i := mm.prefIndex()
	var lastErr error
	for hop := 0; hop < 2*n+1; hop++ {
		err := f(mm.entries[i].conn)
		if err == nil {
			mm.setPref(i)
			return nil
		}
		lastErr = err
		var nl *NotLeaderError
		if errors.As(err, &nl) {
			if j := mm.findHint(nl); j >= 0 && j != i {
				i = j
				continue
			}
			i = (i + 1) % n
			continue
		}
		if retryable(err) {
			// Dead / unreachable / stopped entry: try the next one.
			i = (i + 1) % n
			continue
		}
		// A real answer from a live leader (bad table name, etc.):
		// surface it, don't mask it behind failover.
		return err
	}
	return fmt.Errorf("%w: %v", errNoLeader, lastErr)
}

func (mm *multiMaster) Join(p Peer) error {
	return mm.call(func(c MasterConn) error { return c.Join(p) })
}

func (mm *multiMaster) Heartbeat(id string) error {
	return mm.call(func(c MasterConn) error { return c.Heartbeat(id) })
}

func (mm *multiMaster) Meta() (Meta, error) {
	var out Meta
	err := mm.call(func(c MasterConn) error {
		var e error
		out, e = c.Meta()
		return e
	})
	return out, err
}

func (mm *multiMaster) CreateTable(table string) error {
	return mm.call(func(c MasterConn) error { return c.CreateTable(table) })
}
