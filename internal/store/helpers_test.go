package store

// Test-only helpers: no shipped binary calls these, so they live
// with the tests that do.

// Lag reports how many mutations are enqueued but not yet applied.
func (c *AsyncCommitter) Lag() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int(c.enqueued - c.applied)
}

// Position returns the replica's durable cursor.
func (f *Follower) Position() (segment uint64, offset int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.pos.Segment, f.pos.Offset
}

// Dir returns the replica directory (the argument to Open on
// promotion).
func (f *Follower) Dir() string { return f.dir }

// Len reports the number of live keys in a space.
func (s *Store) Len(space string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.mem[space])
}

// Sync forces an fsync of the active segment regardless of mode.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.awaitFlushLocked()
	err := s.fsyncLocked()
	s.markSyncedLocked()
	return err
}

// Snapshot writes the full state to a new snapshot file and compacts
// away the WAL segments it covers.
func (s *Store) Snapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.snapshotLocked()
}
