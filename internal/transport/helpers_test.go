package transport

import (
	"sort"

	"github.com/masc-project/masc/internal/clock"
)

// Test-only helpers: no shipped binary calls these, so they live
// with the tests that do.

// WithClock injects the time source used for delays. Defaults to the
// real clock.
func WithClock(clk clock.Clock) NetworkOption {
	return func(n *Network) { n.clk = clk }
}

// Addresses returns the registered addresses, sorted.
func (n *Network) Addresses() []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]string, 0, len(n.endpoints))
	for a := range n.endpoints {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}
