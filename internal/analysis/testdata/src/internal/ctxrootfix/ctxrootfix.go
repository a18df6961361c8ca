// Package ctxrootfix exercises ctxcheck on a package under internal/:
// a bare Background()/TODO() is flagged in code no handler reaches —
// library code is never the top of a call stack, so the only
// sanctioned detachments carry an allow directive.
package ctxrootfix

import "context"

func offline() {
	ctx := context.Background() // want `context\.Background\(\) in package ctxrootfix — only package main and the module root`
	_ = ctx
}

func todoOffline() {
	ctx := context.TODO() // want `context\.TODO\(\) in package ctxrootfix`
	_ = ctx
}

// detachedCtx is the sanctioned shape: a process-owned maintenance root
// with a reason on the line.
func detachedCtx() context.Context {
	return context.Background() //pstorm:allow ctxcheck process-owned maintenance path with no inbound request context
}

// threaded code is clean.
func fetch(ctx context.Context) error {
	_, cancel := context.WithTimeout(ctx, 0)
	defer cancel()
	return ctx.Err()
}
