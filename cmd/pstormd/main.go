// Command pstormd runs one node of a distributed PStorM profile store:
// either the master (META catalog, liveness, failover) or a region
// server (a shard of the profile table, replicating to its followers).
// Nodes speak JSON over HTTP; the same wire protocol the in-process
// clusters use directly.
//
// Usage:
//
//	pstormd -role master -listen :9700
//	pstormd -role region -listen :9701 -id rs-0 -master http://host:9700 -addr http://host:9701
//	pstormd -role region -listen :9702 -id rs-1 -master http://host:9700 -addr http://host:9702
//	pstormd -demo                       # whole cluster over loopback TCP
//
// A region server joins the master at startup and heartbeats for as
// long as it lives; the master lays out the profile table across joined
// servers on the first CreateTable and fails regions over when a server
// goes silent. Point pstorm.Options.MasterURL (or pstorm-bench) at the
// master to use the cluster as a profile store.
//
// The gateway role is the multi-tenant serving tier: a stateless front
// door (request coalescing, per-tenant namespacing, quotas, admission
// control) over an existing cluster's master. Any number of gateways
// can serve one cluster:
//
//	pstormd -role gateway -listen :9800 -master http://host:9700
//
// Every role drains gracefully on SIGTERM/SIGINT: the listener closes
// immediately, in-flight requests get up to -drain to finish, and only
// then is the node's own state torn down.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"pstorm/internal/core"
	"pstorm/internal/dstore"
	"pstorm/internal/gateway"
	"pstorm/internal/obs"
)

// daemonConfig is the flag set one pstormd process runs with.
type daemonConfig struct {
	role      string
	listen    string
	id        string
	masterURL string
	addr      string
	hbTimeout time.Duration
	hbEvery   time.Duration
	repl      int
	drain     time.Duration
	demo      bool
	hold      bool

	// master HA knobs: the electorate, this master's place in it, and
	// the durable META journal.
	peers      string
	standby    bool
	journalDir string
	lease      time.Duration
	seed       int64

	// gateway knobs (master and gateway roles): the default tenant
	// contract and the global admission ceiling.
	gw gateway.Options
}

func main() {
	var cfg daemonConfig
	flag.StringVar(&cfg.role, "role", "", "node role: master, region, or gateway")
	flag.StringVar(&cfg.listen, "listen", "", "address to listen on (e.g. :9700)")
	flag.StringVar(&cfg.id, "id", "", "region server identity (unique per cluster)")
	flag.StringVar(&cfg.masterURL, "master", "", "master base URL(s), comma-separated for HA failover (region and gateway roles)")
	flag.StringVar(&cfg.peers, "peers", "", "master: full electorate as id=url pairs, comma-separated (e.g. m-0=http://a:9700,m-1=http://b:9700); self included")
	flag.BoolVar(&cfg.standby, "standby", false, "master: start as a standby following the leader's latest META image")
	flag.StringVar(&cfg.journalDir, "journal", "", "master: directory for the durable META journal (empty = memory only)")
	flag.DurationVar(&cfg.lease, "lease", 0, "master: leader lease standbys wait out before promoting (default 2×hb-timeout)")
	flag.Int64Var(&cfg.seed, "seed", 0, "master: seed for the deterministic election tie-break")
	flag.StringVar(&cfg.addr, "addr", "", "this region server's base URL as peers reach it")
	flag.DurationVar(&cfg.hbTimeout, "hb-timeout", 2*time.Second, "master: heartbeat timeout before failover")
	flag.DurationVar(&cfg.hbEvery, "hb-every", 500*time.Millisecond, "region: heartbeat interval")
	flag.IntVar(&cfg.repl, "replication", 2, "master: copies per region, primary included")
	flag.DurationVar(&cfg.drain, "drain", 10*time.Second, "graceful shutdown: how long in-flight requests may finish after SIGTERM")
	flag.Float64Var(&cfg.gw.DefaultTenant.RatePerSec, "gw-rate", 0, "gateway: default per-tenant request rate limit in req/s (0 = unlimited)")
	flag.Float64Var(&cfg.gw.DefaultTenant.Burst, "gw-burst", 0, "gateway: default per-tenant burst (0 = max(rate, 1))")
	flag.IntVar(&cfg.gw.DefaultTenant.MaxInflight, "gw-tenant-inflight", 0, "gateway: default per-tenant concurrency ceiling (0 = unlimited)")
	flag.IntVar(&cfg.gw.MaxInflight, "gw-max-inflight", 0, "gateway: global concurrency ceiling across tenants (0 = unlimited)")
	flag.BoolVar(&cfg.demo, "demo", false, "run a master and three region servers over loopback, seed the table, kill and replace a primary, print status")
	flag.BoolVar(&cfg.hold, "hold", false, "demo: keep serving /metrics after the walkthrough instead of exiting")
	flag.Parse()

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "pstormd:", err)
		os.Exit(1)
	}
}

func run(cfg daemonConfig) error {
	if cfg.demo {
		return runDemo(cfg.hbTimeout, cfg.hbEvery, cfg.repl, cfg.hold)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	switch cfg.role {
	case "master":
		if cfg.listen == "" {
			return fmt.Errorf("master needs -listen")
		}
		reg := dstore.NewRegistry()
		peers, err := parseMasterPeers(cfg.peers)
		if err != nil {
			return err
		}
		m, err := dstore.OpenMaster(reg, dstore.MasterOptions{
			HeartbeatTimeout: cfg.hbTimeout,
			Replication:      cfg.repl,
			DefaultSplits:    dstore.DefaultSplits,
			ID:               cfg.id,
			Peers:            peers,
			Standby:          cfg.standby,
			LeaseDuration:    cfg.lease,
			Seed:             cfg.seed,
			JournalDir:       cfg.journalDir,
		})
		if err != nil {
			return err
		}
		m.Start()
		// The master also serves the multi-tenant gateway: it is the node
		// every client already knows, and the routing client it serves
		// through reaches the region servers the same way any external
		// client would.
		mux := http.NewServeMux()
		mux.Handle("/", dstore.MasterHandler(m))
		gw, err := mountGateway(cfg.gw, mux, dstore.NewClient(dstore.ConnectMaster(m), reg))
		if err != nil {
			m.Close()
			return err
		}
		gather := func() obs.Snapshot { return obs.Merge(m.Obs().Snapshot(), gw()) }
		ln, err := net.Listen("tcp", cfg.listen)
		if err != nil {
			m.Close()
			return err
		}
		fmt.Printf("pstormd master %s listening on %s (role %s, replication %d, heartbeat timeout %s)\n",
			m.MasterID(), cfg.listen, m.Role(), cfg.repl, cfg.hbTimeout)
		return serveGraceful(ctx, ln, withObs(mux, gather), cfg.drain, m.Stop)
	case "region":
		if cfg.listen == "" || cfg.id == "" || cfg.masterURL == "" || cfg.addr == "" {
			return fmt.Errorf("region needs -listen, -id, -master, and -addr")
		}
		rs := dstore.NewRegionServer(cfg.id, dstore.NewRegistry())
		mc := dstore.DialMasters(cfg.masterURL, 0)
		if err := mc.Join(dstore.Peer{ID: cfg.id, Addr: cfg.addr}); err != nil {
			return fmt.Errorf("joining master: %w", err)
		}
		rs.StartHeartbeats(mc, dstore.Peer{ID: cfg.id, Addr: cfg.addr}, cfg.hbEvery)
		fmt.Printf("pstormd region server %s listening on %s (master %s)\n", cfg.id, cfg.listen, cfg.masterURL)
		gather := func() obs.Snapshot {
			return obs.Merge(rs.Obs().Snapshot(), rs.HStore().Obs().Snapshot())
		}
		ln, err := net.Listen("tcp", cfg.listen)
		if err != nil {
			rs.Stop()
			return err
		}
		return serveGraceful(ctx, ln, withObs(dstore.RegionServerHandler(rs), gather), cfg.drain, rs.Stop)
	case "gateway":
		if cfg.listen == "" || cfg.masterURL == "" {
			return fmt.Errorf("gateway needs -listen and -master")
		}
		mux := http.NewServeMux()
		gather, err := mountGateway(cfg.gw, mux, dstore.NewClient(dstore.DialMasters(cfg.masterURL, 0), dstore.NewRegistry()))
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", cfg.listen)
		if err != nil {
			return err
		}
		fmt.Printf("pstormd gateway listening on %s (master %s)\n", cfg.listen, cfg.masterURL)
		return serveGraceful(ctx, ln, withObs(mux, gather), cfg.drain, nil)
	default:
		return fmt.Errorf("need -role master, -role region, -role gateway, or -demo (see -h)")
	}
}

// mountGateway mounts on mux a gateway over kv, with opt's tenant
// contract and ceiling, and returns the gather of its metrics and kv's.
func mountGateway(opt gateway.Options, mux *http.ServeMux, kv *dstore.Client) (func() obs.Snapshot, error) {
	opt.KV, opt.Obs, opt.DegradedFn = kv, obs.NewRegistry(), kv.AnyBreakerOpen
	gw, err := gateway.New(opt)
	if err != nil {
		return nil, err
	}
	gw.Mount(mux)
	return func() obs.Snapshot { return obs.Merge(opt.Obs.Snapshot(), kv.Obs().Snapshot()) }, nil
}

// serveGraceful serves h on ln until ctx is canceled (the SIGTERM /
// SIGINT path in run), then drains: the listener closes so new
// connections are refused, in-flight requests get up to drain to
// finish, and only after the drain completes (or its deadline forces
// the remaining connections closed) does onStopped tear down the
// node's own state. A clean drain returns nil.
func serveGraceful(ctx context.Context, ln net.Listener, h http.Handler, drain time.Duration, onStopped func()) error {
	srv := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		// The listener died on its own; nothing is serving anymore.
		if onStopped != nil {
			onStopped()
		}
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	err := srv.Shutdown(sctx)
	if err != nil {
		// Drain deadline passed: force the stragglers closed.
		_ = srv.Close()
	}
	if onStopped != nil {
		onStopped()
	}
	if errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "pstormd: drain deadline (%s) passed; closed remaining connections\n", drain)
		return nil
	}
	return err
}

// withObs wraps a node's wire-protocol handler with the /metrics and
// /debug/events observability endpoints.
func withObs(h http.Handler, gather func() obs.Snapshot) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", h)
	obs.Mount(mux, gather)
	return mux
}

// parseMasterPeers decodes the -peers flag: comma-separated id=url
// pairs naming the full master electorate (this master included).
func parseMasterPeers(s string) ([]dstore.Peer, error) {
	if s == "" {
		return nil, nil
	}
	var peers []dstore.Peer
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want id=url)", part)
		}
		peers = append(peers, dstore.Peer{ID: id, Addr: addr})
	}
	return peers, nil
}

// runDemo stands up a full HA cluster over loopback TCP — three
// masters (one leader, two standbys holding its latest META image) plus
// three region servers, all speaking the HTTP wire protocol — creates
// the profile table through a routing client, writes and reads rows,
// then kills a primary mid-stream, lets the master fail over, joins a
// replacement server, kills the *leader master* and watches a standby
// take over with the recovered META, and prints the metrics the whole
// cycle produced. Observable at the printed /metrics URL.
func runDemo(hbTimeout, hbEvery time.Duration, repl int, hold bool) error {
	// Listeners first, so every master knows the full electorate's
	// addresses before any of them is constructed.
	const nMasters = 3
	lns := make([]net.Listener, nMasters)
	urls := make([]string, nMasters)
	peers := make([]dstore.Peer, nMasters)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
		peers[i] = dstore.Peer{ID: fmt.Sprintf("m-%d", i), Addr: urls[i]}
	}
	masters := make([]*dstore.Master, nMasters)
	for i := range masters {
		m, err := dstore.OpenMaster(dstore.NewRegistry(), dstore.MasterOptions{
			HeartbeatTimeout: hbTimeout,
			Replication:      repl,
			DefaultSplits:    dstore.DefaultSplits,
			ID:               peers[i].ID,
			Peers:            peers,
			Standby:          i > 0,
		})
		if err != nil {
			return err
		}
		masters[i] = m
		defer m.Close()
	}

	var (
		servers []*dstore.RegionServer
		cl      *dstore.Client
	)
	gather := func() obs.Snapshot {
		var snaps []obs.Snapshot
		for _, m := range masters {
			snaps = append(snaps, m.Obs().Snapshot())
		}
		for _, rs := range servers {
			snaps = append(snaps, rs.Obs().Snapshot(), rs.HStore().Obs().Snapshot())
		}
		if cl != nil {
			snaps = append(snaps, cl.Obs().Snapshot())
		}
		return obs.Merge(snaps...)
	}
	for i, m := range masters {
		go http.Serve(lns[i], withObs(dstore.MasterHandler(m), gather)) //nolint:errcheck — demo server dies with the process
		m.Start()
		fmt.Printf("master %s (%s): %s\n", m.MasterID(), m.Role(), urls[i])
	}
	masterList := strings.Join(urls, ",")
	fmt.Printf("metrics: %s/metrics   events: %s/debug/events\n", urls[0], urls[0])

	startServer := func(id string) error {
		rs := dstore.NewRegionServer(id, dstore.NewRegistry())
		u, err := serveLoopback(dstore.RegionServerHandler(rs))
		if err != nil {
			return err
		}
		mc := dstore.DialMasters(masterList, 0)
		if err := mc.Join(dstore.Peer{ID: id, Addr: u}); err != nil {
			return err
		}
		rs.StartHeartbeats(mc, dstore.Peer{ID: id, Addr: u}, hbEvery)
		servers = append(servers, rs)
		fmt.Printf("region server %s: %s\n", id, u)
		return nil
	}
	for i := 0; i < 3; i++ {
		if err := startServer(fmt.Sprintf("rs-%d", i)); err != nil {
			return err
		}
	}

	cl = dstore.NewClient(dstore.DialMasters(masterList, 0), dstore.NewRegistry())
	if err := cl.CreateTable(context.Background(), core.TableName); err != nil {
		return err
	}
	for i := 0; i < 10; i++ {
		row := fmt.Sprintf("meta/demo-job-%02d", i)
		if err := cl.Put(context.Background(), core.TableName, row, "profile", []byte(fmt.Sprintf("{\"job\":%d}", i))); err != nil {
			return err
		}
	}
	rows, err := cl.Scan(context.Background(), core.TableName, "meta/", "meta0", nil, 0)
	if err != nil {
		return err
	}
	fmt.Printf("\nwrote 10 rows through the routing client; scan sees %d\n\n", len(rows))
	printMeta(cl)

	// Kill the primary of the "meta" region and keep writing: the client
	// retries against the corpse until the master declares it dead and
	// promotes a follower, then the writes land on the new primary.
	meta, err := cl.Meta()
	if err != nil {
		return err
	}
	victim := ""
	for _, g := range meta.Tables[core.TableName] {
		if g.StartKey == "meta" {
			victim = g.Primary
		}
	}
	for _, rs := range servers {
		if rs.ID() == victim {
			rs.Stop()
		}
	}
	fmt.Printf("\nkilled %s (primary of the \"meta\" region); writing 5 more rows through the outage...\n", victim)
	for i := 10; i < 15; i++ {
		row := fmt.Sprintf("meta/demo-job-%02d", i)
		// A single retry budget can run out before the master declares
		// the primary dead; ErrExhausted tells an outage apart from a
		// real store error, so the demo just budgets again.
		for budget := 0; ; budget++ {
			err := cl.Put(context.Background(), core.TableName, row, "profile", []byte(fmt.Sprintf("{\"job\":%d}", i)))
			if err == nil {
				break
			}
			if !errors.Is(err, dstore.ErrExhausted) || budget >= 20 {
				return err
			}
		}
	}
	if err := startServer("rs-3"); err != nil { // recovery: a fresh node joins
		return err
	}
	deadline := time.Now().Add(10 * hbTimeout) //pstorm:allow clockcheck demo waits out a real wall-clock recovery deadline
	for time.Now().Before(deadline) {          //pstorm:allow clockcheck demo waits out a real wall-clock recovery deadline
		if gather().Counters["dstore_master_rereplications_total"] > 0 {
			break
		}
		time.Sleep(hbTimeout / 4)
	}
	rows, err = cl.Scan(context.Background(), core.TableName, "meta/", "meta0", nil, 0)
	if err != nil {
		return err
	}
	fmt.Printf("all %d rows readable after failover\n\n", len(rows))
	printMeta(cl)

	// Control-plane failover: kill the leader master and keep using the
	// cluster. The standbys notice the lease lapse, one promotes with a
	// higher fencing epoch from the META image it holds, the
	// region servers' heartbeats re-home through the master list, and
	// the client follows the not-leader redirects with no config change.
	var leader *dstore.Master
	for _, m := range masters {
		if !m.Stopped() && m.IsLeader() {
			leader = m
		}
	}
	if leader == nil {
		return fmt.Errorf("demo: no leader master found")
	}
	fmt.Printf("\nkilling leader master %s; waiting for a standby to take over...\n", leader.MasterID())
	leader.Stop()
	takeoverStart := time.Now() //pstorm:allow clockcheck demo waits out a real wall-clock takeover
	var newLeader *dstore.Master
	mDeadline := time.Now().Add(20 * hbTimeout) //pstorm:allow clockcheck demo waits out a real wall-clock takeover
	for time.Now().Before(mDeadline) {          //pstorm:allow clockcheck demo waits out a real wall-clock takeover
		for _, m := range masters {
			if !m.Stopped() && m.IsLeader() {
				newLeader = m
			}
		}
		if newLeader != nil {
			break
		}
		time.Sleep(hbTimeout / 8)
	}
	if newLeader == nil {
		return fmt.Errorf("demo: no standby took over within %s", 20*hbTimeout)
	}
	fmt.Printf("standby %s took over as leader (master epoch %d) after %s\n",
		newLeader.MasterID(), newLeader.MasterEpoch(),
		time.Since(takeoverStart).Round(time.Millisecond)) //pstorm:allow clockcheck demo reports real wall-clock takeover time
	fmt.Println("writing 5 more rows through the new leader...")
	for i := 15; i < 20; i++ {
		row := fmt.Sprintf("meta/demo-job-%02d", i)
		for budget := 0; ; budget++ {
			err := cl.Put(context.Background(), core.TableName, row, "profile", []byte(fmt.Sprintf("{\"job\":%d}", i)))
			if err == nil {
				break
			}
			if !errors.Is(err, dstore.ErrExhausted) || budget >= 20 {
				return err
			}
		}
	}
	rows, err = cl.Scan(context.Background(), core.TableName, "meta/", "meta0", nil, 0)
	if err != nil {
		return err
	}
	fmt.Printf("all %d rows readable through the new leader; recovered META:\n\n", len(rows))
	printMeta(cl)

	snap := gather()
	fmt.Println("\nmetrics after the kill/recover cycles:")
	for _, k := range []string{
		"dstore_master_server_deaths_total", "dstore_master_failovers_total",
		"dstore_master_rereplications_total", "dstore_master_elections_total",
		"dstore_master_stepdowns_total", "dstore_master_journal_pushes_total",
		"dstore_master_journal_tails_total", "dstore_rs_stale_master_total",
		"dstore_client_retries_total", "dstore_client_meta_refresh_total",
	} {
		fmt.Printf("  %-40s %d\n", k, snap.Counters[k])
	}
	fmt.Printf("  %-40s %g\n", "dstore_master_leader", snap.Gauges["dstore_master_leader"])
	hists := make([]string, 0, len(snap.Histograms))
	for name := range snap.Histograms {
		hists = append(hists, name)
	}
	sort.Strings(hists)
	for _, name := range hists {
		if h := snap.Histograms[name]; h.Count > 0 {
			fmt.Printf("  %-40s count=%d sum=%.2f\n", name, h.Count, h.Sum)
		}
	}
	fmt.Println("\ntraced events:")
	for _, e := range snap.Events {
		fmt.Printf("  #%d %s %v\n", e.Seq, e.Type, e.Fields)
	}
	if hold {
		fmt.Printf("\nholding; curl %s/metrics (Ctrl-C to exit)\n", urls[0])
		select {}
	}
	return nil
}

func printMeta(cl *dstore.Client) {
	meta, err := cl.Meta()
	if err != nil {
		return
	}
	fmt.Printf("META epoch %d, table %q regions:\n", meta.Epoch, core.TableName)
	for _, g := range meta.Tables[core.TableName] {
		fmt.Printf("  region %d [%q, %q) primary=%s followers=%v\n",
			g.ID, g.StartKey, g.EndKey, g.Primary, g.Followers)
	}
}

func serveLoopback(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	go http.Serve(ln, h) //nolint:errcheck — demo server dies with the process
	return "http://" + ln.Addr().String(), nil
}
