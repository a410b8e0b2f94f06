// Package simnet models the network and host costs of the paper's
// testbed (a 100 Mb LAN between a client laptop and a server running
// the SCM services) so that the Table 1 and Figure 5 experiments run
// deterministically in virtual time. Delays are computed from a base
// latency, a per-kilobyte serialization cost, and optional seeded
// jitter; the transports sleep on an injected clock for these amounts.
package simnet

import (
	"math/rand"
	"sync"
	"time"
)

// LinkProfile describes one network link's delay model. The zero value
// is a zero-latency link. LinkProfile is safe for concurrent use.
type LinkProfile struct {
	// BaseLatency is the fixed per-message propagation + protocol cost.
	BaseLatency time.Duration
	// PerKB is the added serialization cost per kilobyte of message.
	PerKB time.Duration
	// JitterFrac, in [0,1), scales the random jitter added to each
	// delay: delay *= 1 + U(-JitterFrac, +JitterFrac).
	JitterFrac float64

	mu  sync.Mutex
	rng *rand.Rand
}

// NewLinkProfile builds a link with deterministic jitter from seed.
func NewLinkProfile(base, perKB time.Duration, jitterFrac float64, seed int64) *LinkProfile {
	return &LinkProfile{
		BaseLatency: base,
		PerKB:       perKB,
		JitterFrac:  jitterFrac,
		rng:         rand.New(rand.NewSource(seed)),
	}
}

// Delay computes the transfer delay for a message of size bytes.
func (l *LinkProfile) Delay(sizeBytes int) time.Duration {
	d := l.BaseLatency + time.Duration(float64(l.PerKB)*float64(sizeBytes)/1024)
	if l.JitterFrac > 0 {
		l.mu.Lock()
		if l.rng == nil {
			l.rng = rand.New(rand.NewSource(1))
		}
		f := 1 + l.JitterFrac*(2*l.rng.Float64()-1)
		l.mu.Unlock()
		d = time.Duration(float64(d) * f)
	}
	if d < 0 {
		d = 0
	}
	return d
}

// ServiceProfile describes a simulated service implementation's
// processing cost (execution time of the service plus provider-side
// software, per the paper's RTT definition).
type ServiceProfile struct {
	// Base is the fixed processing time per request.
	Base time.Duration
	// PerKB is the added processing cost per kilobyte of request.
	PerKB time.Duration
}

// ProcessingTime computes the host-side processing delay for a request
// of the given size.
func (p ServiceProfile) ProcessingTime(sizeBytes int) time.Duration {
	return p.Base + time.Duration(float64(p.PerKB)*float64(sizeBytes)/1024)
}
