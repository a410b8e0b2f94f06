// Package faultinject reproduces the paper's fault-injection test code
// (§3.2): "we wrote test code that occasionally (at random times)
// injected exception events in the tested system. For service failures,
// we randomly picked some of available services and made them
// unavailable for a random amount of time. For service QoS
// degradations, test code occasionally picked some service instances
// and changed their QoS values (e.g., introduced delays)."
//
// Injectors are deterministic given their seed, so experiments are
// reproducible run to run.
package faultinject

import (
	"math/rand"
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
	// degradation).
	ExtraDelay time.Duration
	// Tag, when set, marks the reply of a perturbed invocation (the
	// in-process network stamps it as a header block), so a client can
	// count the replies an injector touched.
	Tag string
}

// Injector decides, per invocation at a given instant, whether and how
// to perturb the invocation. Implementations must be safe for
// concurrent use.
type Injector interface {
	Decide(now time.Time) Outcome
}

// None injects nothing.
type None struct{}

var _ Injector = None{}

// Decide implements Injector.
func (None) Decide(time.Time) Outcome { return Outcome{} }

// Window is a half-open interval [Start, End) of unavailability.
type Window struct {
	Start time.Time
	End   time.Time
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t time.Time) bool {
	return !t.Before(w.Start) && t.Before(w.End)
}

// Scheduled injects unavailability during fixed windows. Useful for
// tests that need exact fault timing.
type Scheduled struct {
	// Reason labels injected failures; defaults to "scheduled outage".
	Reason  string
	windows []Window
}

var _ Injector = (*Scheduled)(nil)

// NewScheduled builds an injector from explicit windows.
func NewScheduled(windows ...Window) *Scheduled {
	return &Scheduled{windows: windows}
}

// Decide implements Injector.
func (s *Scheduled) Decide(now time.Time) Outcome {
	for _, w := range s.windows {
		if w.Contains(now) {
			reason := s.Reason
			if reason == "" {
				reason = "scheduled outage"
			}
			return Outcome{Unavailable: true, Reason: reason}
		}
	}
	return Outcome{}
}

// RandomOutages alternates exponentially distributed up and down
// periods, like a service that crashes at random times and recovers
// after a random repair time. The schedule is generated lazily and
// deterministically from the seed, so two injectors with identical
// parameters produce identical outage patterns.
type RandomOutages struct {
	mu       sync.Mutex
	rng      *rand.Rand
	meanUp   time.Duration
	meanDown time.Duration
	// horizon is the end of the last generated period; periods
	// alternate starting with an up period at origin.
	origin  time.Time
	horizon time.Time
	windows []Window // generated outage windows, in order
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

// NewRandomOutages builds an injector whose uptime and downtime periods
// have the given means. origin anchors the schedule (pass the
// experiment's start time).
func NewRandomOutages(origin time.Time, meanUp, meanDown time.Duration, seed int64) *RandomOutages {
	return &RandomOutages{
		rng:      rand.New(rand.NewSource(seed)),
		meanUp:   meanUp,
		meanDown: meanDown,
		origin:   origin,
		horizon:  origin,
		reason:   "random outage",
	}
}

// Decide implements Injector.
func (r *RandomOutages) Decide(now time.Time) Outcome {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.extendTo(now)
	for i := len(r.windows) - 1; i >= 0; i-- {
		w := r.windows[i]
		if w.Contains(now) {
			return Outcome{Unavailable: true, Reason: r.reason, ExtraDelay: r.failureLatency}
		}
		if now.After(w.End) {
			break
		}
	}
	return Outcome{}
}

// OutageWindowsThrough generates and returns the outage schedule up to t.
// Exposed so experiments can report injected downtime.
func (r *RandomOutages) OutageWindowsThrough(t time.Time) []Window {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.extendTo(t)
	out := make([]Window, 0, len(r.windows))
	for _, w := range r.windows {
		if w.Start.After(t) {
			break
		}
		out = append(out, w)
	}
	return out
}

func (r *RandomOutages) extendTo(t time.Time) {
	for !r.horizon.After(t) {
		up := expDuration(r.rng, r.meanUp)
		down := expDuration(r.rng, r.meanDown)
		start := r.horizon.Add(up)
		end := start.Add(down)
		r.windows = append(r.windows, Window{Start: start, End: end})
		r.horizon = end
	}
}

// expDuration draws an exponentially distributed duration with the
// given mean, clamped to at least one microsecond so schedules advance.
func expDuration(rng *rand.Rand, mean time.Duration) time.Duration {
	d := time.Duration(rng.ExpFloat64() * float64(mean))
	if d < time.Microsecond {
		d = time.Microsecond
	}
	return d
}

// Degradation occasionally adds latency to invocations: with
// probability P, a delay uniform in [MinDelay, MaxDelay] is injected
// and the reply is tagged "degraded".
type Degradation struct {
	mu       sync.Mutex
	rng      *rand.Rand
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
	return &Degradation{
		rng:      rand.New(rand.NewSource(seed)),
		p:        p,
		minDelay: minDelay,
		maxDelay: maxDelay,
	}
}

// Decide implements Injector.
func (d *Degradation) Decide(time.Time) Outcome {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.rng.Float64() >= d.p {
		return Outcome{}
	}
	span := d.maxDelay - d.minDelay
	extra := d.minDelay
	if span > 0 {
		extra += time.Duration(d.rng.Int63n(int64(span)))
	}
	return Outcome{ExtraDelay: extra, Tag: "degraded"}
}

// Composite applies several injectors: the invocation is unavailable if
// any says so; extra delays accumulate.
type Composite struct {
	injectors []Injector
}

var _ Injector = (*Composite)(nil)

// NewComposite combines injectors.
func NewComposite(injectors ...Injector) *Composite {
	return &Composite{injectors: injectors}
}

// Decide implements Injector.
func (c *Composite) Decide(now time.Time) Outcome {
	var out Outcome
	for _, inj := range c.injectors {
		o := inj.Decide(now)
		if o.Unavailable && !out.Unavailable {
			out.Unavailable = true
			out.Reason = o.Reason
		}
		out.ExtraDelay += o.ExtraDelay
	}
	return out
}

// FailureRate injects stateless random failures at a fixed probability
// per invocation, independent of time. This models transient errors
// (lost messages, sporadic 500s) rather than outage episodes.
type FailureRate struct {
	mu     sync.Mutex
	rng    *rand.Rand
	p      float64
	reason string
}

var _ Injector = (*FailureRate)(nil)

// NewFailureRate builds an injector failing each invocation with
// probability p.
func NewFailureRate(p float64, seed int64) *FailureRate {
	return &FailureRate{
		rng:    rand.New(rand.NewSource(seed)),
		p:      p,
		reason: "transient failure",
	}
}

// Decide implements Injector.
func (f *FailureRate) Decide(time.Time) Outcome {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.rng.Float64() < f.p {
		return Outcome{Unavailable: true, Reason: f.reason}
	}
	return Outcome{}
}
