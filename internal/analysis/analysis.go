// Package analysis is pstorm's project-specific static analysis suite.
// It enforces, by tooling, the invariants the profile store's
// determinism and concurrency story depends on — invariants that were
// previously guarded only by reviewer memory.
//
// Syntactic and intraprocedural checkers (each site or function judged
// on its own):
//
//   - clockcheck: no bare time.Now()/time.Since() calls; clocks are
//     injected (MasterOptions.Now, hstore WallClock, obs.Registry.Now)
//     so deterministic tests and reproducible profiles stay possible.
//   - randcheck: no global math/rand package-level calls; every
//     component draws from its own seeded *rand.Rand so two runs with
//     the same seed produce byte-identical profiles and models.
//   - walerrcheck: no discarded error from WAL/persist/flush/fsync
//     path calls; durability errors must be handled or returned.
//   - obscheck: metric and event names are compile-time constants in
//     lowercase_snake form, and one name is never registered as two
//     different metric kinds.
//   - ctxcheck: only package main and the module root package mint
//     root contexts: context.Background()/TODO() anywhere else is a
//     finding, and context.WithoutCancel always needs a
//     //pstorm:allow reason.
//   - tenantcheck: a package above the tenant boundary that imports
//     net/http never calls a method on a raw store client (core.KV,
//     *dstore.Client, *hstore.Client); core.Store is the only door, so
//     no request-derived "ftype/<tenant>!<jobID>" key can be built
//     around the validated namespace.
//   - leakcheck: a goroutine spawned in a long-lived server package
//     (hstore, dstore, gateway, cluster) is tied, in its own body, to a
//     WaitGroup, a stop channel, or a context — or is a provably
//     bounded one-shot — so Close actually closes.
//
// Two interprocedural checkers, sharing one held-set pass
// (lockAcquisitions) over the whole-module call graph and dataflow core
// in callgraph.go / dataflow.go (which hold exactly what they use):
//
//   - lockorder: the global mutex-acquisition-order graph (which lock
//     classes are acquired while which others are held, across function
//     and package boundaries) must be acyclic — a cycle is a potential
//     deadlock even when every individual function looks fine.
//   - lockcheck: no mutex held across a network/RPC call, directly or
//     any number of calls down — a latency/deadlock hazard in the
//     master and region servers. Read locks and TryLock-acquired locks
//     count.
//
// Every checker is held to one product-code regression it must catch:
// the mutation table in mutation_test.go. Test files are out of scope —
// the loader never parses _test.go, so nothing is reported there and a
// //pstorm:allow in a test file is inert.
//
// Justified exceptions carry a line directive, on the finding's line
// or the line above:
//
//	//pstorm:allow <checker> <reason>
//
// The reason is mandatory; an unknown checker name in a directive is
// itself reported; and a directive that no longer suppresses anything
// is reported as an unusedallow finding — so the exception list stays
// auditable and cannot rot silently.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one report from one checker. All fields are exported and
// JSON-serializable for pstorm-vet -json.
type Finding struct {
	Checker string         `json:"checker"`
	Pos     token.Position `json:"pos"`
	Msg     string         `json:"msg"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Checker, f.Msg)
}

// Module is the loaded module plus the lazily built whole-program facts
// checkers share: the call graph and the held-set pass's acquisitions,
// each built at most once per Run.
type Module struct {
	Pkgs []*Package

	cg        *CallGraph
	acqs      []lockAcq // lockAcquisitions' result, shared by lockorder and lockcheck
	acqsBuilt bool
}

// NewModule wraps loaded packages for checking.
func NewModule(pkgs []*Package) *Module { return &Module{Pkgs: pkgs} }

// Graph returns the module call graph, building it on first use.
func (m *Module) Graph() *CallGraph {
	if m.cg == nil {
		m.cg = buildCallGraph(m.Pkgs)
	}
	return m.cg
}

// Checker inspects the loaded module and reports findings.
type Checker interface {
	// Name is the identifier used in output and //pstorm:allow directives.
	Name() string
	// Doc is a one-line description of the enforced invariant.
	Doc() string
	// Check runs over the whole module at once (metric name uniqueness
	// and lock ordering are cross-package).
	Check(m *Module, report func(pos token.Position, msg string))
}

// Checkers returns the full suite, in output order.
func Checkers() []Checker {
	return []Checker{
		clockCheck{},
		randCheck{},
		lockCheck{},
		walErrCheck{},
		obsCheck{},
		lockOrderCheck{},
		ctxCheck{},
		tenantCheck{},
		leakCheck{},
	}
}

// CheckerByName returns the named checker, or nil.
func CheckerByName(name string) Checker {
	for _, c := range Checkers() {
		if c.Name() == name {
			return c
		}
	}
	return nil
}

// directiveChecker is the pseudo-checker name for problems with
// //pstorm:allow directives themselves. Those findings are not
// suppressible.
const directiveChecker = "directive"

// unusedAllowChecker is the pseudo-checker name for //pstorm:allow
// directives that no longer suppress any finding. Like directive
// findings, these are not suppressible — the fix is deleting the stale
// directive, not excusing it.
const unusedAllowChecker = "unusedallow"

const directivePrefix = "//pstorm:allow"

type directive struct {
	pos     token.Position
	checker string
	reason  string
	used    bool
}

// collectDirectives scans every comment of every file for
// //pstorm:allow lines. Malformed directives (missing reason, unknown
// checker name) are reported as findings so exceptions cannot rot
// silently.
func collectDirectives(pkgs []*Package, known map[string]bool, report func(Finding)) map[string]map[int][]*directive {
	byFile := make(map[string]map[int][]*directive)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, directivePrefix) {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					rest := strings.TrimPrefix(c.Text, directivePrefix)
					fields := strings.Fields(rest)
					if len(fields) == 0 {
						report(Finding{directiveChecker, pos, "pstorm:allow directive needs a checker name and a reason"})
						continue
					}
					name := fields[0]
					if !known[name] {
						report(Finding{directiveChecker, pos, fmt.Sprintf("pstorm:allow names unknown checker %q", name)})
						continue
					}
					reason := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), name))
					if reason == "" {
						report(Finding{directiveChecker, pos, fmt.Sprintf("pstorm:allow %s needs a reason", name)})
						continue
					}
					m := byFile[pos.Filename]
					if m == nil {
						m = make(map[int][]*directive)
						byFile[pos.Filename] = m
					}
					m[pos.Line] = append(m[pos.Line], &directive{pos: pos, checker: name, reason: reason})
				}
			}
		}
	}
	return byFile
}

// suppressed reports whether a finding is covered by a directive on
// its own line or the line immediately above, marking the directive
// used so stale ones can be reported.
func suppressed(f Finding, dirs map[string]map[int][]*directive) bool {
	if f.Checker == directiveChecker || f.Checker == unusedAllowChecker {
		return false
	}
	m := dirs[f.Pos.Filename]
	if m == nil {
		return false
	}
	for _, line := range []int{f.Pos.Line, f.Pos.Line - 1} {
		for _, d := range m[line] {
			if d.checker == f.Checker {
				d.used = true
				return true
			}
		}
	}
	return false
}

// Run executes the given checkers over pkgs and returns the surviving
// (non-suppressed) findings sorted by position. A nil checkers slice
// runs the full suite. Directives belonging to a checker that ran but
// suppressed nothing come back as unusedallow findings; directives for
// checkers outside the run are left alone, so a single-checker run
// (pstorm-vet -checker lockorder) never flags another checker's
// exceptions.
func Run(pkgs []*Package, checkers []Checker) []Finding {
	if checkers == nil {
		checkers = Checkers()
	}
	known := make(map[string]bool)
	for _, c := range Checkers() {
		known[c.Name()] = true
	}
	ran := make(map[string]bool)
	for _, c := range checkers {
		ran[c.Name()] = true
	}
	mod := NewModule(pkgs)
	var all []Finding
	collect := func(f Finding) { all = append(all, f) }
	dirs := collectDirectives(pkgs, known, collect)
	for _, c := range checkers {
		name := c.Name()
		c.Check(mod, func(pos token.Position, msg string) {
			collect(Finding{name, pos, msg})
		})
	}
	out := all[:0]
	for _, f := range all {
		if !suppressed(f, dirs) {
			out = append(out, f)
		}
	}
	for _, m := range dirs {
		for _, ds := range m {
			for _, d := range ds {
				if !d.used && ran[d.checker] {
					out = append(out, Finding{unusedAllowChecker, d.pos,
						fmt.Sprintf("pstorm:allow %s no longer suppresses any finding — delete the stale directive", d.checker)})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Checker < b.Checker
	})
	return out
}

// calleeFunc resolves the static callee of a call expression, or nil
// for calls through function values, conversions, and built-ins.
// Instantiated generic functions and methods resolve to their origin
// (the declared object), so call-graph nodes are keyed consistently.
func calleeFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn.Origin()
		}
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return fn.Origin()
		}
	}
	return nil
}
