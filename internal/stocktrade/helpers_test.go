package stocktrade

// Test-only helpers: no shipped binary calls these, so they live
// with the tests that do.

// SetQuote updates one stock's state.
func (s *StockNotification) SetQuote(q Quote) {
	s.mu.Lock()
	s.quotes[q.Symbol] = q
	s.mu.Unlock()
}

// Records returns recorded trade IDs.
func (l *LedgerService) Records() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, len(l.records))
	copy(out, l.records)
	return out
}
