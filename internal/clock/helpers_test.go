package clock

import (
	"time"
)

// Test-only helpers: no shipped binary calls these, so they live
// with the tests that do.

// AdvanceTo moves the clock forward to t. Moving backwards is a no-op.
func (f *Fake) AdvanceTo(t time.Time) {
	f.mu.Lock()
	f.advanceToLocked(t)
	f.mu.Unlock()
}
