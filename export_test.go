package pstorm

import "pstorm/internal/dstore"

// StoreCluster exposes the in-process dstore cluster backing the
// profile store when Options.StoreServers was used (nil otherwise), so
// tests can kill servers and move regions.
func (s *System) StoreCluster() *dstore.LocalCluster { return s.cluster }
