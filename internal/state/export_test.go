package state

// GroupBytes reports the accounted size of kg (0 if not local).
func (s *Store) GroupBytes(kg int) int {
	if g := s.Group(kg); g != nil {
		return g.Bytes
	}
	return 0
}
