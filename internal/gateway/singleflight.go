package gateway

import (
	"context"
	"sync"
)

// flight is one in-progress coalesced evaluation. Joiners wait on done
// with their own contexts; the leader's fn runs under a context owned
// by the flight, canceled only when every joiner has given up — one
// impatient caller must never kill an answer others are waiting for.
type flight[V any] struct {
	done    chan struct{}
	val     V
	err     error
	waiters int
	cancel  context.CancelFunc
}

// Group coalesces concurrent calls that share a key: the first caller
// (the leader) runs fn once, late joiners attach to the running flight
// and share its result. This is request coalescing in the singleflight
// style, with two deliberate differences from the classic library:
//
//   - the shared evaluation runs detached from any single caller's
//     context, so a canceled joiner — including the leader — does not
//     cancel work other callers still want;
//   - when the last waiter gives up, the flight's context is canceled:
//     nobody is listening, so the evaluation stops burning CPU.
//
// Results are not cached past the flight: once fn returns, the key is
// live again. (Answer caching is the Evaluator's job; the Group only
// deduplicates concurrent work.)
type Group[V any] struct {
	mu      sync.Mutex
	flights map[string]*flight[V]
}

// NewGroup returns an empty Group.
func NewGroup[V any]() *Group[V] { return &Group[V]{flights: make(map[string]*flight[V])} }

// Do returns fn's result for key, running fn at most once across all
// concurrent callers with the same key. shared reports whether the
// result came from a flight this caller joined rather than led. When
// ctx is done before the flight completes, Do returns ctx.Err() — the
// flight itself keeps running for the remaining waiters.
func (g *Group[V]) Do(ctx context.Context, key string, fn func(ctx context.Context) (V, error)) (v V, err error, shared bool) {
	g.mu.Lock()
	f, joined := g.flights[key]
	if joined {
		f.waiters++
		g.mu.Unlock()
	} else {
		//pstorm:allow ctxcheck the flight leader must outlive its first caller so joined waiters get a result; the flight cancels itself when the last waiter departs
		fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
		f = &flight[V]{done: make(chan struct{}), waiters: 1, cancel: cancel}
		g.flights[key] = f
		g.mu.Unlock()
		go func() {
			v, err := fn(fctx)
			g.mu.Lock()
			f.val, f.err = v, err
			delete(g.flights, key)
			g.mu.Unlock()
			close(f.done)
			cancel()
		}()
	}

	select {
	case <-f.done:
		return f.val, f.err, joined
	case <-ctx.Done():
		g.mu.Lock()
		f.waiters--
		abandon := f.waiters == 0
		g.mu.Unlock()
		if abandon {
			f.cancel()
		}
		return v, ctx.Err(), joined
	}
}
