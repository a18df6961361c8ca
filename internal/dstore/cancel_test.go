package dstore

import (
	"context"
	"errors"
	"testing"
	"time"

	"pstorm/internal/hstore"
)

// stuckConn parks every scan RPC until the caller's context dies —
// the pathological region server a departing caller must not wait out.
type stuckConn struct {
	ServerConn
	started chan struct{}
}

func (s *stuckConn) Scan(ctx context.Context, table string, regionID int, start, end string, f hstore.Filter, limit int) ([]hstore.Row, error) {
	select {
	case s.started <- struct{}{}:
	default:
	}
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestScanCallerCancelMidFanout: canceling the caller's context while
// the parallel scan has region RPCs in flight must (a) return promptly
// with the cancellation — not ErrExhausted, not a hang — and (b) tear
// down every fan-out goroutine, because each in-flight RPC aborts on
// the same context instead of running its region to completion.
func TestScanCallerCancelMidFanout(t *testing.T) {
	checkGoroutineLeak(t)
	c, _ := startCluster(t, 3, nil)
	cl := c.Client()
	seedScanRows(t, cl)

	started := make(chan struct{}, 1)
	c.Reg.WrapConn = func(id string, conn ServerConn) ServerConn {
		return &stuckConn{ServerConn: conn, started: started}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errCh := make(chan error, 1)
	go func() {
		_, err := cl.Scan(ctx, "t", "", "", nil, 0)
		errCh <- err
	}()

	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("no region RPC ever started")
	}
	cancel()

	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled mid-fan-out scan returned %v, want context.Canceled", err)
		}
		if errors.Is(err, ErrExhausted) {
			t.Errorf("cancellation misreported as budget exhaustion: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Scan did not return after the caller canceled mid-fan-out")
	}
}
