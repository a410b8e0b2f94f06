package faultinject

import (
	"sync"
	"testing"
	"time"
)

func TestRandomOutagesDeterministic(t *testing.T) {
	a := NewRandomOutages(60, 10, 99)
	b := NewRandomOutages(60, 10, 99)
	for k := uint64(0); k < 500; k++ {
		if a.Decide(k).Unavailable != b.Decide(k).Unavailable {
			t.Fatalf("seeded injectors diverged at k=%d", k)
		}
	}
	// Out of order and from several goroutines at once: a fresh
	// injector gives the answers the in-order walk gave.
	c := NewRandomOutages(60, 10, 99)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 499 - g; k >= 0; k -= 4 {
				if c.Decide(uint64(k)).Unavailable != a.Decide(uint64(k)).Unavailable {
					t.Errorf("answer at k=%d depends on query order", k)
				}
			}
		}()
	}
	wg.Wait()
}

func TestRandomOutagesAlternate(t *testing.T) {
	const n = 10_000
	r := NewRandomOutages(30, 5, 7)
	r.SetFailureLatency(time.Millisecond)
	// Rebuild the runs from Decide over k: runs[0] is up, then they
	// alternate.
	runs := []int{0}
	var downRuns []int
	var down int
	for k := uint64(0); k < n; k++ {
		o := r.Decide(k)
		if inDown := len(runs)%2 == 0; o.Unavailable != inDown {
			runs = append(runs, 0)
		}
		runs[len(runs)-1]++
		if o.Unavailable {
			down++
			if o.ExtraDelay != time.Millisecond || o.Reason == "" {
				t.Fatalf("outage outcome = %+v", o)
			}
		}
	}
	if runs[0] == 0 {
		t.Fatal("schedule starts down at k=0")
	}
	for i := 1; i < len(runs); i += 2 {
		downRuns = append(downRuns, runs[i])
	}
	if len(downRuns) < 50 {
		t.Fatalf("%d outages in %d requests with a mean up run of 30", len(downRuns), n)
	}
	// With mean up 30 and mean down 5 the expected downtime fraction is
	// 5/35 ≈ 0.14; allow a wide band for randomness.
	if frac := float64(down) / n; frac < 0.07 || frac > 0.25 {
		t.Fatalf("downtime fraction = %v, implausible", frac)
	}
	var sum int
	for _, d := range downRuns {
		sum += d
	}
	if mean := float64(sum) / float64(len(downRuns)); mean < 3 || mean > 8 {
		t.Fatalf("mean down run = %.1f requests, want about 5", mean)
	}
}

func TestRandomOutagesQueryBeforeOrigin(t *testing.T) {
	// Every schedule opens with an up run, so the first request is served.
	for seed := int64(0); seed < 100; seed++ {
		r := NewRandomOutages(60, 1, seed)
		if o := r.Decide(0); o.Unavailable {
			t.Fatalf("seed %d: unavailable at k=0", seed)
		}
	}
}

func TestDegradation(t *testing.T) {
	d := NewDegradation(1.0, 10*time.Millisecond, 20*time.Millisecond, 5)
	for k := uint64(0); k < 100; k++ {
		o := d.Decide(k)
		if o.Unavailable {
			t.Fatal("degradation should not make unavailable")
		}
		if o.ExtraDelay < 10*time.Millisecond || o.ExtraDelay >= 20*time.Millisecond {
			t.Fatalf("delay %v outside [10ms,20ms)", o.ExtraDelay)
		}
		if o.Tag != "degraded" {
			t.Fatalf("tag = %q", o.Tag)
		}
		if again := d.Decide(k); again != o {
			t.Fatalf("k=%d decided twice differently: %+v then %+v", k, o, again)
		}
	}
	never := NewDegradation(0, time.Second, time.Second, 5)
	if o := never.Decide(0); o.ExtraDelay != 0 {
		t.Fatal("p=0 injected delay")
	}
}

func TestDegradationFixedDelay(t *testing.T) {
	d := NewDegradation(1.0, 5*time.Millisecond, 5*time.Millisecond, 1)
	if o := d.Decide(0); o.ExtraDelay != 5*time.Millisecond {
		t.Fatalf("fixed delay = %v", o.ExtraDelay)
	}
}

func TestDegradationSwappedBounds(t *testing.T) {
	d := NewDegradation(1.0, 10*time.Millisecond, time.Millisecond, 1)
	if o := d.Decide(0); o.ExtraDelay != 10*time.Millisecond {
		t.Fatalf("swapped bounds delay = %v, want clamped to min", o.ExtraDelay)
	}
}

func TestFailureRate(t *testing.T) {
	always := NewFailureRate(1.0, 3)
	if o := always.Decide(0); !o.Unavailable || o.Reason == "" {
		t.Fatalf("p=1 outcome = %+v", o)
	}
	never := NewFailureRate(0, 3)
	if o := never.Decide(0); o.Unavailable {
		t.Fatal("p=0 failed")
	}

	half := NewFailureRate(0.5, 3)
	other := NewFailureRate(0.5, 4)
	fails, differ := 0, 0
	const n = 2000
	for k := uint64(0); k < n; k++ {
		o := half.Decide(k)
		if o.Unavailable {
			fails++
		}
		if o.Unavailable != other.Decide(k).Unavailable {
			differ++
		}
		if half.Decide(k) != o {
			t.Fatalf("k=%d decided twice differently", k)
		}
	}
	if fails < n*4/10 || fails > n*6/10 {
		t.Fatalf("p=0.5 failure count = %d/%d, outside 40-60%%", fails, n)
	}
	// Two seeds give independent schedules: they disagree about half
	// the time.
	if differ < n*4/10 || differ > n*6/10 {
		t.Fatalf("seeds 3 and 4 disagree on %d/%d requests", differ, n)
	}
}
