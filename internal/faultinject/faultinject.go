// Package faultinject reproduces the paper's fault-injection test code
// (§3.2): "we wrote test code that occasionally (at random times)
// injected exception events in the tested system. For service failures,
// we randomly picked some of available services and made them
// unavailable for a random amount of time. For service QoS
// degradations, test code occasionally picked some service instances
// and changed their QoS values (e.g., introduced delays)."
//
// "At random times" is counted in requests, not read off a clock: an
// injector decides an endpoint's k-th request from its seed and k
// alone. The same seed therefore perturbs the same requests run to run,
// whatever the scheduler does, and a fault schedule is an input to the
// experiment rather than a race with it.
package faultinject

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Outcome is an injector's decision for one invocation.
type Outcome struct {
	// Unavailable makes the invocation fail as if the service were down.
	Unavailable bool
	// Reason describes the injected failure (for fault classification).
	Reason string
	// ExtraDelay is added to the service's processing time (QoS
	// degradation), or, on an unavailable outcome, is how long the
	// caller takes to detect the outage.
	ExtraDelay time.Duration
	// Tag, when set, marks the reply of a perturbed invocation (the
	// in-process network stamps it as a header block), so a client can
	// count the replies an injector touched.
	Tag string
}

// Injector decides how to perturb an endpoint's k-th request (k counts
// from 0). The decision depends on the injector's parameters and k
// only. Implementations must be safe for concurrent use.
type Injector interface {
	Decide(k uint64) Outcome
}

// RandomOutages alternates up and down runs of requests, like a service
// that crashes at random and recovers after a random repair. Run
// lengths are geometric (each request ends the current run with a fixed
// probability), the request-count form of exponential up and repair
// times. The schedule is drawn lazily from the seed in run order, so
// any k, asked in any order, gets the same answer.
type RandomOutages struct {
	mu       sync.Mutex
	rng      *rand.Rand
	meanUp   float64
	meanDown float64
	// downs are the generated outage runs [start, end) in order; the
	// schedule starts with an up run at k = 0 and is drawn through
	// horizon.
	downs   [][2]uint64
	horizon uint64
	reason  string
	// failureLatency is reported as ExtraDelay on unavailable
	// decisions: how long a caller takes to discover the outage
	// (connection timeout). Guarded by mu.
	failureLatency time.Duration
}

// SetFailureLatency sets how long callers take to detect an outage
// (reported as ExtraDelay on unavailable outcomes).
func (r *RandomOutages) SetFailureLatency(d time.Duration) {
	r.mu.Lock()
	r.failureLatency = d
	r.mu.Unlock()
}

var _ Injector = (*RandomOutages)(nil)

// NewRandomOutages builds an injector whose up and down runs have the
// given mean lengths, in requests.
func NewRandomOutages(meanUp, meanDown float64, seed int64) *RandomOutages {
	return &RandomOutages{
		rng:      rand.New(rand.NewSource(seed)),
		meanUp:   meanUp,
		meanDown: meanDown,
		reason:   "random outage",
	}
}

// Decide implements Injector.
func (r *RandomOutages) Decide(k uint64) Outcome {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.horizon <= k {
		start := r.horizon + runLength(r.rng, r.meanUp)
		r.horizon = start + runLength(r.rng, r.meanDown)
		r.downs = append(r.downs, [2]uint64{start, r.horizon})
	}
	// The first run ending after k is the only one that can hold it.
	i := sort.Search(len(r.downs), func(i int) bool { return r.downs[i][1] > k })
	if k >= r.downs[i][0] {
		return Outcome{Unavailable: true, Reason: r.reason, ExtraDelay: r.failureLatency}
	}
	return Outcome{}
}

// runLength draws a run of at least one request whose mean is mean:
// floor(X)+1 for X exponential with mean -1/ln(1-1/mean) is geometric
// on {1, 2, …} with exactly that mean.
func runLength(rng *rand.Rand, mean float64) uint64 {
	if mean <= 1 {
		return 1
	}
	return uint64(rng.ExpFloat64()/-math.Log1p(-1/mean)) + 1
}

// Degradation occasionally adds latency to invocations: with
// probability P, a delay uniform in [MinDelay, MaxDelay) is injected
// and the reply is tagged "degraded".
type Degradation struct {
	seed     int64
	p        float64
	minDelay time.Duration
	maxDelay time.Duration
}

var _ Injector = (*Degradation)(nil)

// NewDegradation builds a latency degradation injector.
func NewDegradation(p float64, minDelay, maxDelay time.Duration, seed int64) *Degradation {
	if maxDelay < minDelay {
		maxDelay = minDelay
	}
	return &Degradation{seed: seed, p: p, minDelay: minDelay, maxDelay: maxDelay}
}

// Decide implements Injector.
func (d *Degradation) Decide(k uint64) Outcome {
	u := uniform(d.seed, k)
	if u >= d.p {
		return Outcome{}
	}
	// Given u < p, u/p is itself uniform in [0, 1): one draw picks
	// both whether and how much.
	extra := d.minDelay + time.Duration(u/d.p*float64(d.maxDelay-d.minDelay))
	return Outcome{ExtraDelay: extra, Tag: "degraded"}
}

// FailureRate injects independent random failures at a fixed
// probability per invocation. This models transient errors (lost
// messages, sporadic 500s) rather than outage episodes.
type FailureRate struct {
	seed   int64
	p      float64
	reason string
}

var _ Injector = (*FailureRate)(nil)

// NewFailureRate builds an injector failing each invocation with
// probability p.
func NewFailureRate(p float64, seed int64) *FailureRate {
	return &FailureRate{seed: seed, p: p, reason: "transient failure"}
}

// Decide implements Injector.
func (f *FailureRate) Decide(k uint64) Outcome {
	if uniform(f.seed, k) < f.p {
		return Outcome{Unavailable: true, Reason: f.reason}
	}
	return Outcome{}
}

// uniform hashes (seed, k) to [0, 1) with the splitmix64 finalizer, so
// the draw for request k needs no shared generator state.
func uniform(seed int64, k uint64) float64 {
	z := uint64(seed) + (k+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}
