package simnet

import (
	"time"
)

// Test-only helpers: no shipped binary calls these, so they live
// with the tests that do.

// LAN100Mb approximates the paper's testbed link: ~0.3 ms base latency
// and ~80 µs per KB (100 Mb/s ≈ 12.5 MB/s ≈ 80 µs/KB), 5% jitter.
func LAN100Mb(seed int64) *LinkProfile {
	return NewLinkProfile(300*time.Microsecond, 80*time.Microsecond, 0.05, seed)
}
