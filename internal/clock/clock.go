// Package clock provides an injectable time source so that middleware
// components (retry queues, QoS windows, availability trackers, the
// workflow scheduler) can run against either the real wall clock or a
// deterministic fake clock driven by tests and simulations.
package clock

import (
	"sync"
	"time"
)

// Clock is the time source abstraction used throughout MASC. The zero
// configuration of every component defaults to the real clock; experiment
// harnesses inject a Fake clock so runs are deterministic and fast.
type Clock interface {
	// Now reports the current instant.
	Now() time.Time
	// After returns a channel that delivers the then-current time once
	// d has elapsed.
	After(d time.Duration) <-chan time.Time
	// Sleep blocks until d has elapsed.
	Sleep(d time.Duration)
	// Since reports the time elapsed since t.
	Since(t time.Time) time.Duration
}

// Real is the wall-clock implementation of Clock backed by package time.
type Real struct{}

var _ Clock = Real{}

// New returns the real wall clock.
func New() Clock { return Real{} }

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// Since implements Clock.
func (Real) Since(t time.Time) time.Duration { return time.Since(t) }

// Fake is a manually advanced clock. Goroutines blocked in Sleep or on an
// After channel are released when Advance moves the clock past their
// deadline. Fake is safe for concurrent use.
type Fake struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*waiter
}

var _ Clock = (*Fake)(nil)

type waiter struct {
	deadline time.Time
	ch       chan time.Time
}

// NewFake returns a Fake clock positioned at start.
func NewFake(start time.Time) *Fake {
	return &Fake{now: start}
}

// NewFakeAtZero returns a Fake clock positioned at a fixed, arbitrary
// epoch. Useful when only relative time matters.
func NewFakeAtZero() *Fake {
	return NewFake(time.Date(2006, time.November, 27, 0, 0, 0, 0, time.UTC))
}

// Now implements Clock.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// After implements Clock. The returned channel has capacity one, so the
// delivering Advance never blocks.
func (f *Fake) After(d time.Duration) <-chan time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()

	ch := make(chan time.Time, 1)
	deadline := f.now.Add(d)
	if d <= 0 {
		ch <- f.now
		return ch
	}
	f.waiters = append(f.waiters, &waiter{deadline: deadline, ch: ch})
	return ch
}

// Sleep implements Clock. It blocks until another goroutine Advances the
// clock past the deadline.
func (f *Fake) Sleep(d time.Duration) {
	<-f.After(d)
}

// Since implements Clock.
func (f *Fake) Since(t time.Time) time.Duration {
	return f.Now().Sub(t)
}

// Advance moves the clock forward by d, releasing every waiter whose
// deadline has been reached in deadline order.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	target := f.now.Add(d)
	f.advanceToLocked(target)
	f.mu.Unlock()
}

func (f *Fake) advanceToLocked(target time.Time) {
	if target.Before(f.now) {
		return
	}
	// Release waiters in deadline order so chained timers (a released
	// waiter re-arming a shorter timer) behave as with a real clock.
	for {
		idx := -1
		for i, w := range f.waiters {
			if w.deadline.After(target) {
				continue
			}
			if idx == -1 || w.deadline.Before(f.waiters[idx].deadline) {
				idx = i
			}
		}
		if idx == -1 {
			break
		}
		w := f.waiters[idx]
		f.waiters = append(f.waiters[:idx], f.waiters[idx+1:]...)
		if w.deadline.After(f.now) {
			f.now = w.deadline
		}
		w.ch <- f.now
	}
	f.now = target
}

// PendingWaiters reports how many goroutines are blocked waiting for the
// clock to advance. Intended for tests that need to synchronize with a
// component before advancing time.
func (f *Fake) PendingWaiters() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.waiters)
}

// BlockUntilWaiters polls until at least n waiters are registered or the
// real-time timeout elapses; it reports whether the condition was met.
// This lets tests deterministically hand off control to goroutines that
// are about to sleep on the fake clock.
func (f *Fake) BlockUntilWaiters(n int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if f.PendingWaiters() >= n {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
}
