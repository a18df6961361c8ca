package hstore

// Test hooks: a major compaction on demand and the segment count a
// point read consults, so tests can force and observe compaction. The
// product compacts at checkpoint and in the size-tiered background
// step (region.go).

// Compact compacts every region of the table.
func (s *Server) Compact(tableName string) error {
	t, err := s.table(tableName)
	if err != nil {
		return err
	}
	s.mu.RLock()
	regions := append([]*region(nil), t.regions...)
	s.mu.RUnlock()
	for _, g := range regions {
		if err := g.compact(); err != nil {
			return withTable(err, tableName)
		}
	}
	return nil
}

// SegmentCounts reports, per region, the number of segments a point
// read must consult — the read-amplification metric compaction bounds.
func (s *Server) SegmentCounts(tableName string) ([]int, error) {
	t, err := s.table(tableName)
	if err != nil {
		return nil, err
	}
	s.mu.RLock()
	regions := append([]*region(nil), t.regions...)
	s.mu.RUnlock()
	out := make([]int, len(regions))
	for i, g := range regions {
		out[i] = g.segmentCount()
	}
	return out, nil
}
