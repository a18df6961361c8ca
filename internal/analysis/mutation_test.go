package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// The mutation table is the suite's test of record: each row is one
// scripted regression in *product* code — the violation a checker
// exists for — applied through the loader's overlay, and the checker
// must report it (or the row pins, as `miss`, a limitation the docs
// own up to). A checker whose row goes quiet has rotted; a checker
// with no row has no evidence it works outside its own fixture.
type mutation struct {
	name    string
	checker string
	file    string // module-relative; findings must land here
	// old must occur exactly once in file, so a site that moved fails
	// the row loudly instead of mutating something else.
	old, new string
	// miss documents why the suite is expected to stay silent. Empty
	// means the row must be caught by checker and by nothing else.
	miss string
}

var mutations = []mutation{
	{
		name: "bare wall clock in the master's liveness bookkeeping", checker: "clockcheck",
		file: "internal/dstore/master.go",
		old:  "\tmem.lastBeat = m.now()\n\tm.cHeartbeats.Inc()",
		new:  "\tmem.lastBeat = time.Now()\n\tm.cHeartbeats.Inc()",
	},
	{
		name: "global math/rand in client backoff jitter", checker: "randcheck",
		file: "internal/dstore/client.go",
		old:  "c.rng.Int63n(int64(d) + 1)",
		new:  "rand.Int63n(int64(d) + 1)",
	},
	{
		name: "WAL fsync error dropped on the floor", checker: "walerrcheck",
		file: "internal/hstore/wal.go",
		old:  "\tif w.sync {\n\t\treturn w.f.Sync()\n\t}",
		new:  "\tif w.sync {\n\t\tw.f.Sync()\n\t}",
	},
	{
		name: "WAL truncate error assigned to blank", checker: "walerrcheck",
		file: "internal/hstore/wal.go",
		old:  "\tif err := w.f.Truncate(0); err != nil {\n\t\treturn err\n\t}",
		new:  "\t_ = w.f.Truncate(0)",
	},
	{
		name: "metric name built at the call site", checker: "obscheck",
		file: "internal/dstore/master.go",
		old:  `o.Counter("dstore_master_joins_total")`,
		new:  `o.Counter(fmt.Sprint("dstore_master_joins_", opts.id()))`,
	},
	{
		name: "metric name not lowercase_snake", checker: "obscheck",
		file: "internal/dstore/master.go",
		old:  `o.Counter("dstore_master_joins_total")`,
		new:  `o.Counter("dstore-master-Joins")`,
	},
	{
		name: "one metric name registered as two kinds", checker: "obscheck",
		file: "internal/dstore/master.go",
		old:  `o.Counter("dstore_master_journal_corrupt_total").Inc()`,
		new:  `o.Counter("dstore_master_leader").Inc()`,
	},
	{
		name: "region-server RPC under the catalog lock", checker: "lockcheck",
		file: "internal/dstore/master.go",
		old:  "\tmem.lastBeat = m.now()\n\tm.cHeartbeats.Inc()",
		new:  "\tmem.lastBeat = m.now()\n\tmem.conn.SetRole(\"t\", 0, false, nil, m.masterEpoch)\n\tm.cHeartbeats.Inc()",
	},
	{
		name: "the same RPC one helper down", checker: "lockcheck",
		file: "internal/dstore/master.go",
		old:  "\tmem.lastBeat = m.now()\n\tm.cHeartbeats.Inc()",
		new:  "\tmem.lastBeat = m.now()\n\tm.rpcDemote(mem, \"t\", 0)\n\tm.cHeartbeats.Inc()",
		miss: "lockcheck is intraprocedural by design: the master holds the catalog lock across its rpc* helpers everywhere (MoveRegion's choreography, failover, repair), so following calls would flag the design, not a regression",
	},
	{
		name: "root context minted in a gateway handler", checker: "ctxcheck",
		file: "internal/gateway/gateway.go",
		old:  "ts.sys.Store.JobIDs(r.Context())",
		new:  "ts.sys.Store.JobIDs(context.Background())",
	},
	{
		name: "goroutine with no stop path", checker: "leakcheck",
		file: "internal/dstore/master.go",
		old:  "\tm.loopOnce.Do(func() { close(m.loopStop) })",
		new:  "\tgo func() {\n\t\tfor {\n\t\t}\n\t}()\n\tm.loopOnce.Do(func() { close(m.loopStop) })",
	},
	{
		name: "heartbeat loop loses its stop case", checker: "leakcheck",
		file: "internal/dstore/regionserver.go",
		old:  "\t\t\tcase <-rs.hbStop:\n\t\t\t\treturn\n",
		new:  "",
	},
	{
		name: "held-image lock taken before the catalog lock", checker: "lockorder",
		file: "internal/dstore/election.go",
		old:  "\tif fromPeer {\n\t\tif m.leading.Load() {\n",
		new:  "\tif fromPeer {\n\t\tm.mu.Lock()\n\t\tm.mu.Unlock()\n\t\tif m.leading.Load() {\n",
	},
	{
		name: "gateway handler reads a header-keyed row off the raw KV", checker: "tenantcheck",
		file: "internal/gateway/gateway.go",
		old:  "\tids, err := ts.sys.Store.JobIDs(r.Context())\n",
		new:  "\tkey := r.Header.Get(\"X-Job\")\n\tg.opt.KV.Get(r.Context(), core.TableName, key)\n\tids, err := ts.sys.Store.JobIDs(r.Context())\n",
	},
	{
		name: "the same read laundered through a gateway helper", checker: "tenantcheck",
		file: "internal/gateway/gateway.go",
		old:  "func (g *Gateway) handleProfiles(w http.ResponseWriter, r *http.Request, ts *tenantState) {\n",
		new: "func (g *Gateway) rawGet(ctx context.Context, key string) {\n\tg.opt.KV.Get(ctx, core.TableName, \"stat/\"+key)\n}\n\n" +
			"func (g *Gateway) handleProfiles(w http.ResponseWriter, r *http.Request, ts *tenantState) {\n\tg.rawGet(r.Context(), r.Header.Get(\"X-Job\"))\n",
	},
	{
		name: "allow directive outlives the call it excused", checker: unusedAllowChecker,
		file: "internal/dstore/client.go",
		old:  "return time.Now() //pstorm:allow clockcheck",
		new:  "return time.Time{} //pstorm:allow clockcheck",
	},
}

var realModule struct {
	once sync.Once
	pkgs []*Package
	err  error
}

// loadModule type-checks the real module once per test binary.
func loadModule(t *testing.T) (*Loader, []*Package) {
	t.Helper()
	l := fixtureLoader(t)
	m := &realModule
	m.once.Do(func() { m.pkgs, m.err = l.LoadModule() })
	if m.err != nil {
		t.Fatalf("LoadModule: %v", m.err)
	}
	return l, m.pkgs
}

// fork returns a loader that sees overlay in place of the files it
// names and re-checks only what that can change: file set, standard
// library importer and every package that does not import changed
// (directly or not) are shared with l.
func (l *Loader) fork(pkgs []*Package, changed string, overlay map[string][]byte) *Loader {
	f := &Loader{Fset: l.Fset, ModRoot: l.ModRoot, ModPath: l.ModPath, std: l.std,
		pkgs: make(map[string]*Package), overlay: overlay}
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	depends := map[string]bool{changed: true}
	var visit func(p *Package) bool
	visit = func(p *Package) bool {
		if d, ok := depends[p.Path]; ok {
			return d
		}
		depends[p.Path] = false
		for _, imp := range p.Types.Imports() {
			if q := byPath[imp.Path()]; q != nil && visit(q) {
				depends[p.Path] = true
			}
		}
		return depends[p.Path]
	}
	for _, p := range pkgs {
		if !visit(p) {
			f.pkgs[p.Path] = p
		}
	}
	return f
}

func TestMutationTable(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	base, pkgs := loadModule(t)
	if fs := Run(pkgs, nil); len(fs) != 0 {
		t.Fatalf("the unmutated module must be clean, got:\n%s", joinFindings(fs))
	}
	covered := make(map[string]bool)
	for _, mu := range mutations {
		if mu.miss == "" {
			covered[mu.checker] = true
		}
		t.Run(mu.checker+"/"+mu.name, func(t *testing.T) {
			file := filepath.Join(base.ModRoot, filepath.FromSlash(mu.file))
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(src), mu.old); n != 1 {
				t.Fatalf("%s: mutation site occurs %d times, want exactly 1 — the code moved; re-aim the row:\n%s", mu.file, n, mu.old)
			}
			mutated := strings.Replace(string(src), mu.old, mu.new, 1)
			changed := base.ModPath + "/" + filepath.ToSlash(filepath.Dir(mu.file))
			mpkgs, err := base.fork(pkgs, changed, map[string][]byte{file: []byte(mutated)}).LoadModule()
			if err != nil {
				t.Fatalf("the mutated module must still type-check: %v", err)
			}
			fs := Run(mpkgs, nil)
			if mu.miss != "" {
				if len(fs) != 0 {
					t.Errorf("documented miss is now reported — move the row to caught and fix the docs (%s):\n%s", mu.miss, joinFindings(fs))
				}
				return
			}
			inFile := 0
			for _, f := range fs {
				if f.Checker != mu.checker {
					t.Errorf("%s must be the only checker to report, got: %s", mu.checker, f)
				}
				if f.Pos.Filename == file {
					inFile++
				}
			}
			if inFile == 0 {
				t.Errorf("%s did not report the mutation in %s; findings:\n%s", mu.checker, mu.file, joinFindings(fs))
			}
		})
	}
	for _, c := range Checkers() {
		if !covered[c.Name()] {
			t.Errorf("checker %s has no caught row in the mutation table", c.Name())
		}
	}
}
