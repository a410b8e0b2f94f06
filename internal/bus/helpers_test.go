package bus

// Test-only helpers: no shipped binary calls these, so they live
// with the tests that do.

// Dropped reports how many dead letters were evicted to stay within
// the capacity bound.
func (q *DeadLetterQueue) Dropped() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.dropped
}

// Pending reports how many messages await (re)delivery.
func (q *RetryQueue) Pending() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending)
}

// Entries returns a copy of the retained log.
func (l *MessageLogger) Entries() []LogEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.entries.Select(nil, 0)
}
