// Package loadgen is the workload generator of the evaluation harness
// — the role Apache JMeter plays in the paper's §3.2 setup: "we
// simulated multiple concurrent Web service clients, each of which
// invoked deployed services multiple times", measuring per-request
// latency, failures, and throughput.
package loadgen

import (
	"context"
	"sort"
	"sync"
	"time"
)

// Config shapes a load run.
type Config struct {
	// Clients is the number of concurrent closed-loop clients.
	Clients int
	// RequestsPerClient is the measured request count per client.
	RequestsPerClient int
	// WarmupPerClient requests run before measurement (excluded). Every
	// client finishes its warm-up before any client starts measuring,
	// so the warm-up requests are the first ones each service sees.
	WarmupPerClient int
	// ThinkTime pauses between a client's requests ("the delay between
	// requests is set to zero to increase the load on the server").
	ThinkTime time.Duration
}

// Op is one client request; it returns an error on failure. The
// client and seq arguments let workloads vary requests deterministically.
type Op func(ctx context.Context, client, seq int) error

// Outcome is one measured request.
type Outcome struct {
	// Start is when the request was issued.
	Start time.Time
	// Latency is the request round-trip time.
	Latency time.Duration
	// Err is nil on success.
	Err error
}

// Summary aggregates a run.
type Summary struct {
	// Requests is the number of measured requests.
	Requests int
	// Failures is how many returned an error.
	Failures int
	// FailuresPer1000 normalizes failures the way Table 1 reports
	// reliability.
	FailuresPer1000 float64
	// Duration is the measured phase's wall time.
	Duration time.Duration
	// Throughput is successful requests per second.
	Throughput float64
	// Mean, P50, P95, P99, Min, Max summarize successful latencies.
	Mean, P50, P95, P99, Min, Max time.Duration
	// Outcomes lists every measured request in issue order.
	Outcomes []Outcome
}

// Run drives the workload and gathers the summary. Each client runs a
// closed loop (next request only after the previous response), the
// paper's JMeter configuration.
func Run(ctx context.Context, cfg Config, op Op) Summary {
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	if cfg.RequestsPerClient <= 0 {
		cfg.RequestsPerClient = 1
	}

	var mu sync.Mutex
	var outcomes []Outcome

	start := time.Now()
	var wg, warm sync.WaitGroup
	if cfg.WarmupPerClient > 0 {
		warm.Add(cfg.Clients)
	}
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			if cfg.WarmupPerClient > 0 {
				for i := 0; i < cfg.WarmupPerClient; i++ {
					_ = op(ctx, client, -1-i)
				}
				warm.Done()
				warm.Wait()
			}
			for i := 0; i < cfg.RequestsPerClient; i++ {
				if ctx.Err() != nil {
					return
				}
				t0 := time.Now()
				err := op(ctx, client, i)
				o := Outcome{Start: t0, Latency: time.Since(t0), Err: err}
				mu.Lock()
				outcomes = append(outcomes, o)
				mu.Unlock()
				if cfg.ThinkTime > 0 {
					time.Sleep(cfg.ThinkTime)
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	sort.Slice(outcomes, func(i, j int) bool { return outcomes[i].Start.Before(outcomes[j].Start) })
	return Summarize(outcomes, elapsed)
}

// Summarize computes a Summary from raw outcomes.
func Summarize(outcomes []Outcome, elapsed time.Duration) Summary {
	s := Summary{
		Requests: len(outcomes),
		Duration: elapsed,
		Outcomes: outcomes,
	}
	var ok []time.Duration
	for _, o := range outcomes {
		if o.Err != nil {
			s.Failures++
			continue
		}
		ok = append(ok, o.Latency)
	}
	if s.Requests > 0 {
		s.FailuresPer1000 = 1000 * float64(s.Failures) / float64(s.Requests)
	}
	if elapsed > 0 {
		s.Throughput = float64(len(ok)) / elapsed.Seconds()
	}
	if len(ok) == 0 {
		return s
	}
	sort.Slice(ok, func(i, j int) bool { return ok[i] < ok[j] })
	var total time.Duration
	for _, d := range ok {
		total += d
	}
	s.Mean = total / time.Duration(len(ok))
	s.Min = ok[0]
	s.Max = ok[len(ok)-1]
	s.P50 = percentile(ok, 50)
	s.P95 = percentile(ok, 95)
	s.P99 = percentile(ok, 99)
	return s
}

func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := (p*len(sorted) + 99) / 100
	if idx > 0 {
		idx--
	}
	return sorted[idx]
}

// Availability computes Table 1's availability metric from a run's
// chronological outcomes: consecutive failures form downtime episodes
// lasting until the next success, and availability = MTBF/(MTBF+MTTR).
func Availability(outcomes []Outcome) (mtbf, mttr time.Duration, availability float64) {
	if len(outcomes) == 0 {
		return 0, 0, 1
	}
	start := outcomes[0].Start
	end := outcomes[len(outcomes)-1].Start.Add(outcomes[len(outcomes)-1].Latency)
	span := end.Sub(start)

	var downtime time.Duration
	episodes := 0
	var episodeStart time.Time
	inEpisode := false
	for _, o := range outcomes {
		if o.Err != nil {
			if !inEpisode {
				inEpisode = true
				episodeStart = o.Start
				episodes++
			}
			continue
		}
		if inEpisode {
			downtime += o.Start.Sub(episodeStart)
			inEpisode = false
		}
	}
	if inEpisode {
		downtime += end.Sub(episodeStart)
	}
	if episodes == 0 {
		return span, 0, 1
	}
	if downtime > span {
		downtime = span
	}
	uptime := span - downtime
	mtbf = uptime / time.Duration(episodes)
	mttr = downtime / time.Duration(episodes)
	if mtbf+mttr == 0 {
		return mtbf, mttr, 1
	}
	return mtbf, mttr, float64(mtbf) / float64(mtbf+mttr)
}
