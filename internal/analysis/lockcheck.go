package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// lockCheck flags network/RPC calls made while a sync.Mutex or
// sync.RWMutex is held — directly, or any number of calls down: a slow
// or hung peer then stalls every other caller of that lock (and a
// re-entrant path deadlocks). The master and region servers are the hot
// spots — their catalog and follower-set locks must never wrap an
// http.Client.Do, net.Dial, or a dstore client/conn call. It is
// lockorder's held-set pass (lockAcquisitions) with every network call
// acquiring a net pseudo class: a lock held into that class is a
// finding, at the call in the function holding it. Read locks count the
// same as write locks (a reader blocking on a hung peer still starves
// every writer), and a successful TryLock/TryRLock holds the lock just
// like Lock does.
type lockCheck struct{}

func (lockCheck) Name() string { return "lockcheck" }
func (lockCheck) Doc() string {
	return "no mutex held across a network/RPC call, however many calls down"
}

func (lockCheck) Check(m *Module, report func(token.Position, string)) {
	seen := make(map[token.Position]bool)
	for _, a := range lockAcquisitions(m) {
		desc, ok := strings.CutPrefix(a.to, netPrefix)
		if !ok || seen[a.pos] {
			continue // a site reaching several net calls reports the first
		}
		seen[a.pos] = true
		what := desc + " called"
		if a.via != nil {
			what = fmt.Sprintf("call to %s reaches %s", funcDisplay(a.via), desc)
		}
		report(a.pos, fmt.Sprintf("%s while %s is held — release the lock before network/RPC calls", what, a.held.names()))
	}
}

// netCall reports whether the call crosses (or can cross) the network:
// net.Dial*, anything in net/http, or a method on one of the module's
// RPC boundary types — a *Client or *...Conn declared in a dstore or
// hstore package.
func netCall(pkg *Package, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(pkg, call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	desc := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named := recvTypeName(sig); named != nil {
			desc = named.Name() + "." + fn.Name()
			p := named.Pkg().Path()
			if strings.HasSuffix(p, "/dstore") || strings.HasSuffix(p, "/hstore") {
				ln := strings.ToLower(named.Name())
				if strings.HasSuffix(ln, "client") || strings.HasSuffix(ln, "conn") {
					return desc, true
				}
			}
		}
	} else {
		desc = fn.Pkg().Name() + "." + fn.Name()
	}
	switch fn.Pkg().Path() {
	case "net":
		return desc, strings.HasPrefix(fn.Name(), "Dial")
	case "net/http":
		return desc, true
	}
	return "", false
}

// recvTypeName returns the named type of a method receiver, looking
// through pointers.
func recvTypeName(sig *types.Signature) *types.TypeName {
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}
