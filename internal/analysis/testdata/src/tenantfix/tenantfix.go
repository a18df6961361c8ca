// Package tenantfix exercises tenantcheck: a package that imports
// net/http and sits above the tenant boundary never calls a raw store
// client — core.KV, *dstore.Client, *hstore.Client — whatever the key
// is built from. core.Store is the only door.
package tenantfix

import (
	"context"
	"net/http"

	"pstorm/internal/core"
	"pstorm/internal/dstore"
	"pstorm/internal/hstore"
)

type srv struct {
	kv core.KV
	dc *dstore.Client
	hc *hstore.Client
}

// handleDirect reads a row keyed straight from a header: the escape.
func (s *srv) handleDirect(w http.ResponseWriter, r *http.Request) {
	key := r.Header.Get("X-Job")
	s.kv.Get(r.Context(), core.TableName, key) // want `raw store method core\.KV\.Get`
}

// handleLaunder hides the raw call behind a helper: the helper lives
// in the same request-serving package, so it is the finding.
func (s *srv) handleLaunder(w http.ResponseWriter, r *http.Request) {
	s.store(r.Context(), r.Header.Get("X-Tenant"))
}

func (s *srv) store(ctx context.Context, tenant string) {
	s.kv.Put(ctx, core.TableName, "p/"+tenant, "spec", nil) // want `raw store method core\.KV\.Put`
}

// The concrete clients are the same door left open; a constant key does
// not excuse the call, and a verb the old list never knew is a method
// like any other.
func (s *srv) sweep(ctx context.Context) {
	s.dc.BatchPut(ctx, core.TableName, nil)        // want `raw store method dstore\.Client\.BatchPut`
	s.hc.DeleteRow(ctx, core.TableName, "!bounds") // want `raw store method hstore\.Client\.DeleteRow`
}

// handleStore goes through NewTenantStore — the sanctioned path.
// Handing the client on is not a call on it; everything after is
// core.Store's namespaced surface.
func (s *srv) handleStore(w http.ResponseWriter, r *http.Request) {
	st, err := core.NewTenantStore(r.Context(), s.kv, r.Header.Get("X-Tenant"))
	if err != nil {
		http.Error(w, "bad tenant", http.StatusBadRequest)
		return
	}
	if _, err := st.JobIDs(r.Context()); err != nil {
		http.Error(w, "store", http.StatusInternalServerError)
	}
}
