package dstore

// BreakerState reports the named server's current breaker state
// (breakerClosed when breakers are disabled or the server is unknown).
func (c *Client) BreakerState(id string) int {
	if c.BreakerThreshold < 0 {
		return breakerClosed
	}
	c.breakersMu.Lock()
	b, ok := c.breakers[id]
	c.breakersMu.Unlock()
	if !ok {
		return breakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Retries reports how many times operations re-routed after a
// retryable failure — the observable cost of moves and failovers.
func (c *Client) Retries() int64 { return c.mRetries.Value() }

// SeenMasterEpoch returns the highest master epoch this server has
// fenced against.
func (rs *RegionServer) SeenMasterEpoch() int64 { return rs.masterEpoch.Load() }
