package telemetry

import rtmetrics "runtime/metrics"

// RuntimeCollector publishes Go runtime health — heap pressure, GC
// pauses, goroutine count — as masc_go_* gauges, read from the
// runtime/metrics package on every scrape (it registers itself as an
// OnCollect hook). This is the measurement bed BENCH runs use to track
// allocation pressure across PRs: a hot-path change that doubles
// allocations shows up here before it shows up in throughput.
type RuntimeCollector struct {
	samples []rtmetrics.Sample

	goroutines *Gauge
	heapBytes  *Gauge
	allocBytes *Gauge
	gcCycles   *Gauge
	pauseP50   *Gauge
	pauseP99   *Gauge
	pauseMax   *Gauge
}

// runtimeSampleNames are the runtime/metrics keys the collector reads,
// in the order of the samples slice.
var runtimeSampleNames = []string{
	"/sched/goroutines:goroutines",
	"/memory/classes/heap/objects:bytes",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/gc/pauses:seconds",
}

// NewRuntimeCollector registers the masc_go_* gauges in the registry
// and hooks collection into every scrape. A nil registry yields a
// collector whose Collect is a no-op.
func NewRuntimeCollector(reg *Registry) *RuntimeCollector {
	c := &RuntimeCollector{
		samples: make([]rtmetrics.Sample, len(runtimeSampleNames)),
		goroutines: reg.Gauge("masc_go_goroutines",
			"Live goroutines.").With(),
		heapBytes: reg.Gauge("masc_go_heap_objects_bytes",
			"Bytes of memory occupied by live heap objects plus dead objects not yet collected.").With(),
		allocBytes: reg.Gauge("masc_go_alloc_bytes_total",
			"Cumulative bytes allocated on the heap since process start.").With(),
		gcCycles: reg.Gauge("masc_go_gc_cycles_total",
			"Completed garbage-collection cycles since process start.").With(),
	}
	for i, name := range runtimeSampleNames {
		c.samples[i].Name = name
	}
	pauses := reg.Gauge("masc_go_gc_pause_seconds",
		"Stop-the-world GC pause quantiles since process start.", "quantile")
	c.pauseP50 = pauses.With("0.5")
	c.pauseP99 = pauses.With("0.99")
	c.pauseMax = pauses.With("1")
	reg.OnCollect(c.Collect)
	return c
}

// Collect reads the runtime samples and refreshes the gauges.
func (c *RuntimeCollector) Collect() {
	if c == nil {
		return
	}
	rtmetrics.Read(c.samples)
	for _, s := range c.samples {
		switch s.Name {
		case "/sched/goroutines:goroutines":
			c.goroutines.Set(float64(s.Value.Uint64()))
		case "/memory/classes/heap/objects:bytes":
			c.heapBytes.Set(float64(s.Value.Uint64()))
		case "/gc/heap/allocs:bytes":
			c.allocBytes.Set(float64(s.Value.Uint64()))
		case "/gc/cycles/total:gc-cycles":
			c.gcCycles.Set(float64(s.Value.Uint64()))
		case "/gc/pauses:seconds":
			h := s.Value.Float64Histogram()
			c.pauseP50.Set(histQuantile(h, 0.50))
			c.pauseP99.Set(histQuantile(h, 0.99))
			c.pauseMax.Set(histMax(h))
		}
	}
}

// histQuantile estimates a quantile from a runtime/metrics
// Float64Histogram by nearest rank over the bucket counts.
func histQuantile(h *rtmetrics.Float64Histogram, q float64) float64 {
	if h == nil {
		return 0
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if c > 0 && cum >= rank {
			// Bucket i spans Buckets[i] .. Buckets[i+1].
			ub := h.Buckets[i+1]
			if ub > 1e18 || ub < -1e18 { // ±Inf edge buckets
				ub = h.Buckets[i]
			}
			return ub
		}
	}
	return 0
}

// histMax returns the upper bound of the highest non-empty bucket.
func histMax(h *rtmetrics.Float64Histogram) float64 {
	if h == nil {
		return 0
	}
	for i := len(h.Counts) - 1; i >= 0; i-- {
		if h.Counts[i] > 0 {
			ub := h.Buckets[i+1]
			if ub > 1e18 {
				ub = h.Buckets[i]
			}
			return ub
		}
	}
	return 0
}
