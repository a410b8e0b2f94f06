package telemetry

import (
	"math"
)

// Test-only helpers: no shipped binary calls these, so they live
// with the tests that do.

// Add adjusts the value by delta (atomically via CAS).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// End completes the span. Ending a trace's root span commits the trace
// to the tracer's ring buffer. End is idempotent.
func (s *Span) End() { s.EndErr(nil) }
