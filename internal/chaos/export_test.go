package chaos

// Partition cuts a server off: every RPC to it fails with
// dstore.ErrInjected until Heal.
func (e *Engine) Partition(id string) {
	e.mu.Lock()
	e.partitioned[id] = true
	e.mu.Unlock()
}

// Heal reconnects a partitioned server.
func (e *Engine) Heal(id string) {
	e.mu.Lock()
	delete(e.partitioned, id)
	e.mu.Unlock()
}
