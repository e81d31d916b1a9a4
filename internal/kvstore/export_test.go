package kvstore

// Footprint returns the virtual bytes spanned so far (index + slabs).
func (s *Store) Footprint() int64 { return int64(s.nextSlab - s.cfg.Base) }

// Stats returns operation counters: total gets, puts, and get hits.
func (s *Store) Stats() (gets, puts, hits uint64) { return s.gets, s.puts, s.hits }
