// Package ctxfix exercises ctxcheck: a library package (anything but
// package main and the module root) never mints a root context, on a
// request path or off it, and WithoutCancel always needs a reason.
package ctxfix

import (
	"context"
	"net/http"
)

// handle threads the request context: clean.
func handle(w http.ResponseWriter, r *http.Request) {
	fetch(r.Context(), "key")
}

func fetch(ctx context.Context, key string) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	_ = ctx
	refresh()
}

func refresh() {
	ctx := context.Background() // want `context\.Background\(\) in package ctxfix`
	_ = ctx
}

// todoInHandler: TODO is the same hazard as Background.
func todoInHandler(w http.ResponseWriter, r *http.Request) {
	ctx := context.TODO() // want `context\.TODO\(\) in package ctxfix`
	_ = ctx
}

// detach: WithoutCancel is flagged everywhere.
func detach(ctx context.Context) context.Context {
	return context.WithoutCancel(ctx) // want `context\.WithoutCancel detaches the request lifetime`
}

// register wires a handler closure — the gateway's instrument pattern.
// A literal is judged like any other code in the package.
func register(mux *http.ServeMux) {
	mux.HandleFunc("/x", func(w http.ResponseWriter, r *http.Request) {
		ctx := context.Background() // want `context\.Background\(\) in package ctxfix`
		_ = ctx
	})
}

// electionLoop is process-lifecycle code no handler reaches: still not
// a context root — the process entry point hands it one.
func electionLoop(stop chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
			ctx := context.Background() // want `only package main and the module root mint root contexts`
			_ = ctx
		}
	}
}
