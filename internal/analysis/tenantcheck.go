package analysis

import (
	"fmt"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// tenantCheck keeps request-serving code off the raw store: in a
// package above the tenant boundary that imports net/http, any method
// call on core.KV, *dstore.Client or *hstore.Client is a finding.
// core.Store is the only door — it weaves the validated namespace into
// every row key ("ftype/<tenant>!<jobID>"), so a package that sees
// requests and never calls the client cannot build a cross-tenant key.
// Handing the client on (the gateway's one use is the NewTenantStore
// argument) is not a call. Below the boundary — core, dstore, hstore,
// package main's wire protocol — raw keys are the job: exempt. The rule
// is syntactic on purpose, with no verb or sanitizer list to rot; known
// miss: a local interface with KV's method set hides the receiver type.
type tenantCheck struct{}

func (tenantCheck) Name() string { return "tenantcheck" }
func (tenantCheck) Doc() string {
	return "packages that import net/http reach the store through core.Store, never a raw KV client"
}

var rawKVTypes = []string{"internal/core.KV", "internal/dstore.Client", "internal/hstore.Client"}

// aboveTenantBoundary reports whether pkg serves HTTP outside the
// packages whose job is raw keys.
func aboveTenantBoundary(pkg *Package) bool {
	below := pkg.Types.Name() == "main"
	for _, p := range []string{"internal/core", "internal/dstore", "internal/hstore"} {
		below = below || strings.HasSuffix(pkg.Path, p)
	}
	return !below && slices.ContainsFunc(pkg.Types.Imports(), func(p *types.Package) bool { return p.Path() == "net/http" })
}

func (tenantCheck) Check(m *Module, report func(token.Position, string)) {
	for _, pkg := range m.Pkgs {
		if !aboveTenantBoundary(pkg) {
			continue
		}
		for sel, s := range pkg.Info.Selections {
			for _, raw := range rawKVTypes {
				if s.Kind() == types.MethodVal && strings.HasSuffix(s.Recv().String(), raw) {
					report(pkg.Fset.Position(sel.Pos()),
						fmt.Sprintf("raw store method %s.%s in a package that serves HTTP — go through core.Store (NewTenantStore), the only door that namespaces row keys", raw[len("internal/"):], sel.Sel.Name))
				}
			}
		}
	}
}
