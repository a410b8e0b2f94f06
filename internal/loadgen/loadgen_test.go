package loadgen

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunCountsRequests(t *testing.T) {
	var n atomic.Int64
	s := Run(context.Background(), Config{Clients: 4, RequestsPerClient: 25}, func(context.Context, int, int) error {
		n.Add(1)
		return nil
	})
	if n.Load() != 100 || s.Requests != 100 {
		t.Fatalf("ops=%d summary=%d", n.Load(), s.Requests)
	}
	if s.Failures != 0 || s.FailuresPer1000 != 0 {
		t.Fatalf("failures = %d", s.Failures)
	}
	if s.Throughput <= 0 {
		t.Fatalf("throughput = %v", s.Throughput)
	}
}

// TestRunWarmupExcluded: warm-up requests are not measured, and every
// one of them is issued before the first measured request.
func TestRunWarmupExcluded(t *testing.T) {
	var total, measured, early atomic.Int64
	s := Run(context.Background(), Config{Clients: 2, RequestsPerClient: 5, WarmupPerClient: 3},
		func(_ context.Context, client int, seq int) error {
			n := total.Add(1)
			if seq >= 0 {
				measured.Add(1)
				if n <= 6 {
					early.Add(1)
				}
			} else if client == 1 {
				// Slow one client's warm-up down: without the barrier
				// the other would start measuring meanwhile.
				time.Sleep(time.Millisecond)
			}
			return nil
		})
	if early.Load() != 0 {
		t.Fatalf("%d measured requests ran before warm-up finished", early.Load())
	}
	if total.Load() != 16 {
		t.Fatalf("total ops = %d, want 16 (2×(3+5))", total.Load())
	}
	if s.Requests != 10 {
		t.Fatalf("measured = %d, want 10", s.Requests)
	}
	if measured.Load() != 10 {
		t.Fatalf("measured ops = %d", measured.Load())
	}
}

func TestRunFailuresCounted(t *testing.T) {
	fail := errors.New("boom")
	s := Run(context.Background(), Config{Clients: 1, RequestsPerClient: 10},
		func(_ context.Context, _ int, seq int) error {
			if seq%2 == 0 {
				return fail
			}
			return nil
		})
	if s.Failures != 5 {
		t.Fatalf("failures = %d", s.Failures)
	}
	if s.FailuresPer1000 != 500 {
		t.Fatalf("per1000 = %v", s.FailuresPer1000)
	}
}

func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var n atomic.Int64
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	s := Run(ctx, Config{Clients: 2, RequestsPerClient: 1000000},
		func(ctx context.Context, _, _ int) error {
			n.Add(1)
			time.Sleep(time.Millisecond)
			return nil
		})
	if s.Requests >= 2000000 {
		t.Fatal("cancellation ignored")
	}
}

func TestSummarizeLatencyStats(t *testing.T) {
	base := time.Now()
	var outcomes []Outcome
	for i := 1; i <= 100; i++ {
		outcomes = append(outcomes, Outcome{
			Start:   base.Add(time.Duration(i) * time.Millisecond),
			Latency: time.Duration(i) * time.Millisecond,
		})
	}
	s := Summarize(outcomes, time.Second)
	if s.Min != time.Millisecond || s.Max != 100*time.Millisecond {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
	if s.P50 != 50*time.Millisecond {
		t.Fatalf("p50 = %v", s.P50)
	}
	if s.P95 != 95*time.Millisecond {
		t.Fatalf("p95 = %v", s.P95)
	}
	if s.Mean != 50500*time.Microsecond {
		t.Fatalf("mean = %v", s.Mean)
	}
}

func TestSummarizeAllFailures(t *testing.T) {
	s := Summarize([]Outcome{{Err: errors.New("x")}, {Err: errors.New("y")}}, time.Second)
	if s.Failures != 2 || s.Mean != 0 || s.Throughput != 0 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestAvailabilityPerfect(t *testing.T) {
	base := time.Now()
	outcomes := []Outcome{
		{Start: base, Latency: time.Millisecond},
		{Start: base.Add(time.Second), Latency: time.Millisecond},
	}
	_, mttr, avail := Availability(outcomes)
	if avail != 1 || mttr != 0 {
		t.Fatalf("avail=%v mttr=%v", avail, mttr)
	}
}

func TestAvailabilityWithEpisode(t *testing.T) {
	base := time.Now()
	err := errors.New("down")
	outcomes := []Outcome{
		{Start: base, Latency: 0},                                  // ok
		{Start: base.Add(90 * time.Second), Latency: 0, Err: err},  // down at 90
		{Start: base.Add(95 * time.Second), Latency: 0, Err: err},  // still down
		{Start: base.Add(100 * time.Second), Latency: 0},           // recovered at 100
		{Start: base.Add(200 * time.Second), Latency: time.Second}, // ok; end=201
	}
	mtbf, mttr, avail := Availability(outcomes)
	if mttr != 10*time.Second {
		t.Fatalf("mttr = %v", mttr)
	}
	if mtbf != 191*time.Second {
		t.Fatalf("mtbf = %v", mtbf)
	}
	want := float64(191) / float64(201)
	if diff := avail - want; diff > 0.001 || diff < -0.001 {
		t.Fatalf("avail = %v, want %v", avail, want)
	}
}

func TestAvailabilityOpenEpisode(t *testing.T) {
	base := time.Now()
	err := errors.New("down")
	outcomes := []Outcome{
		{Start: base, Latency: 0},
		{Start: base.Add(60 * time.Second), Latency: 0, Err: err},
		{Start: base.Add(120 * time.Second), Latency: 0, Err: err},
	}
	_, _, avail := Availability(outcomes)
	if avail > 0.51 || avail < 0.49 {
		t.Fatalf("avail = %v, want ~0.5", avail)
	}
}

func TestAvailabilityEmpty(t *testing.T) {
	if _, _, avail := Availability(nil); avail != 1 {
		t.Fatalf("avail = %v", avail)
	}
}
