// Package ctxrootfix exercises the internal-package arm of ctxcheck:
// under internal/ a bare Background()/TODO() is flagged even in code
// no handler reaches — internal code is never the top of a call
// stack, so the only sanctioned detachments carry an allow directive.
package ctxrootfix

import "context"

// offline is NOT handler-reachable, but lives under internal/ — the
// strengthened rule flags it anyway.
func offline() {
	ctx := context.Background() // want `context\.Background\(\) in .*offline.* internal code is never a context root`
	_ = ctx
}

func todoOffline() {
	ctx := context.TODO() // want `context\.TODO\(\) in .*todoOffline`
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
