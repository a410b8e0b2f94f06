// Package telemetry is MASC's observability layer: a dependency-free
// metrics registry with Prometheus text-format exposition, a correlated
// trace recorder for adaptation decisions, and HTTP handlers exposing
// both. The paper's architecture is built around monitoring — QoS
// measurement, fault classification, and SLA-violation detection feed
// every adaptation decision (§3.1, §4) — and this package makes those
// signals observable from outside the process.
//
// Every API is nil-safe: a nil *Registry yields nil instruments whose
// methods no-op, and a nil *Tracer yields nil spans likewise. Components
// therefore instrument unconditionally and pay nothing when telemetry
// is not wired in.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefLatencyBuckets are the fixed histogram bucket upper bounds (in
// seconds) used for invocation and activity latencies.
var DefLatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// DefSyncBuckets are bucket bounds (in seconds) tuned for disk-flush
// latencies: fsyncs sit well under the request-latency range on SSDs
// but spike orders of magnitude higher under contention.
var DefSyncBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1,
}

// DefByteBuckets are bucket bounds for payload/record sizes in bytes.
var DefByteBuckets = []float64{
	64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304,
}

// DefCountBuckets are bucket bounds for small cardinalities, e.g.
// records coalesced into one group-commit fsync.
var DefCountBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

type metricKind int

const (
	kindCounter metricKind = iota + 1
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// family is one named metric with a fixed label schema and a set of
// label-valued series.
type family struct {
	name       string
	help       string
	kind       metricKind
	labelNames []string
	buckets    []float64 // histograms only

	mu     sync.Mutex
	series map[string]interface{} // label-key -> *Counter | *Gauge | *Histogram
}

// Registry holds metric families. It is safe for concurrent use. A nil
// *Registry is a valid no-op registry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family

	hooksMu sync.Mutex
	hooks   []func()
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// OnCollect registers a hook run before every exposition or snapshot —
// the place for pull-style collectors (runtime metrics, SLO gauge
// refresh) to publish current values. Hooks must not call back into
// WritePrometheus or Snapshot.
func (r *Registry) OnCollect(f func()) {
	if r == nil || f == nil {
		return
	}
	r.hooksMu.Lock()
	r.hooks = append(r.hooks, f)
	r.hooksMu.Unlock()
}

// runHooks invokes the registered collect hooks.
func (r *Registry) runHooks() {
	if r == nil {
		return
	}
	r.hooksMu.Lock()
	hooks := append([]func(){}, r.hooks...)
	r.hooksMu.Unlock()
	for _, f := range hooks {
		f()
	}
}

// family returns the named family, creating it on first registration.
// Re-registering with a different kind or label schema panics: that is
// a programming error, not a runtime condition.
func (r *Registry) family(name, help string, kind metricKind, buckets []float64, labelNames []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{
			name:       name,
			help:       help,
			kind:       kind,
			labelNames: labelNames,
			buckets:    buckets,
			series:     make(map[string]interface{}),
		}
		r.families[name] = f
		return f
	}
	if f.kind != kind || len(f.labelNames) != len(labelNames) {
		panic(fmt.Sprintf("telemetry: metric %q re-registered with conflicting schema", name))
	}
	for i := range labelNames {
		if f.labelNames[i] != labelNames[i] {
			panic(fmt.Sprintf("telemetry: metric %q re-registered with conflicting labels", name))
		}
	}
	return f
}

// Counter registers (or fetches) a counter family.
func (r *Registry) Counter(name, help string, labelNames ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{fam: r.family(name, help, kindCounter, nil, labelNames)}
}

// Gauge registers (or fetches) a gauge family.
func (r *Registry) Gauge(name, help string, labelNames ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{fam: r.family(name, help, kindGauge, nil, labelNames)}
}

// Histogram registers (or fetches) a histogram family with the given
// bucket upper bounds (DefLatencyBuckets when nil).
func (r *Registry) Histogram(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	if len(buckets) == 0 {
		buckets = DefLatencyBuckets
	}
	bs := make([]float64, len(buckets))
	copy(bs, buckets)
	sort.Float64s(bs)
	return &HistogramVec{fam: r.family(name, help, kindHistogram, bs, labelNames)}
}

// seriesKey joins label values into a map key; 0x1f (unit separator)
// cannot collide with escaped values because values are length-checked
// against the schema, and real label values never embed it.
func seriesKey(values []string) string {
	return strings.Join(values, "\x1f")
}

// with returns the series for the label values, creating it with mk on
// first use. Cardinality mismatches no-op by returning nil.
func (f *family) with(values []string, mk func() interface{}) interface{} {
	if len(values) != len(f.labelNames) {
		return nil
	}
	key := seriesKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = mk()
		f.series[key] = s
	}
	return s
}

// --- Counter ---

// CounterVec is a counter family handle. Nil-safe.
type CounterVec struct{ fam *family }

// Counter is one monotonically increasing series. Nil-safe.
type Counter struct{ v atomic.Uint64 }

// With returns the series for the given label values (in schema order).
func (c *CounterVec) With(values ...string) *Counter {
	if c == nil {
		return nil
	}
	s := c.fam.with(values, func() interface{} { return &Counter{} })
	if s == nil {
		return nil
	}
	return s.(*Counter)
}

// Total returns the sum of the counter across every label series —
// e.g. all faults regardless of VEP and fault type. Nil-safe.
func (c *CounterVec) Total() uint64 {
	if c == nil {
		return 0
	}
	c.fam.mu.Lock()
	defer c.fam.mu.Unlock()
	var total uint64
	for _, s := range c.fam.series {
		if ctr, ok := s.(*Counter); ok {
			total += ctr.v.Load()
		}
	}
	return total
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increments by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// --- Gauge ---

// GaugeVec is a gauge family handle. Nil-safe.
type GaugeVec struct{ fam *family }

// Gauge is one settable series. Nil-safe.
type Gauge struct{ bits atomic.Uint64 }

// With returns the series for the given label values.
func (g *GaugeVec) With(values ...string) *Gauge {
	if g == nil {
		return nil
	}
	s := g.fam.with(values, func() interface{} { return &Gauge{} })
	if s == nil {
		return nil
	}
	return s.(*Gauge)
}

// Set stores the value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// --- Histogram ---

// HistogramVec is a histogram family handle. Nil-safe.
type HistogramVec struct{ fam *family }

// Histogram is one series of bucketed observations. Nil-safe.
type Histogram struct {
	buckets []float64 // upper bounds, ascending
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// With returns the series for the given label values.
func (h *HistogramVec) With(values ...string) *Histogram {
	if h == nil {
		return nil
	}
	s := h.fam.with(values, func() interface{} {
		return &Histogram{
			buckets: h.fam.buckets,
			counts:  make([]atomic.Uint64, len(h.fam.buckets)),
		}
	})
	if s == nil {
		return nil
	}
	return s.(*Histogram)
}

// Observe records one observation (in the unit of the bucket bounds,
// conventionally seconds).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	for i, ub := range h.buckets {
		if v <= ub {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Quantile estimates the q-quantile (0 < q <= 1) of the recorded
// observations from the bucket counts. The rank follows the same
// nearest-rank rounding as qos.Snapshot's P95Response, and the value is
// linearly interpolated inside the winning bucket. With no
// observations it returns 0; ranks falling in the overflow bucket
// return the largest finite bound (the estimate saturates there).
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	pct := uint64(math.Ceil(q * 100))
	rank := (pct*n + 99) / 100
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	lower := 0.0
	for i, ub := range h.buckets {
		c := h.counts[i].Load()
		if c > 0 && cum+c >= rank {
			frac := float64(rank-cum) / float64(c)
			return lower + (ub-lower)*frac
		}
		cum += c
		lower = ub
	}
	if len(h.buckets) > 0 {
		return h.buckets[len(h.buckets)-1]
	}
	return 0
}

// --- exposition ---

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// formatLabels renders {k="v",...}; extra appends additional pairs
// (used for histogram "le").
func formatLabels(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, n, escapeLabel(values[i]))
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extraName, extraValue)
	}
	b.WriteByte('}')
	return b.String()
}

// formatValue renders a sample value the way Prometheus expects.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// WritePrometheus renders every family in the Prometheus text
// exposition format, families and series sorted for determinism.
// Collect hooks registered with OnCollect run first.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.runHooks()
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	for _, f := range fams {
		if err := f.write(w); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) write(w io.Writer) error {
	f.mu.Lock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	snapshot := make(map[string]interface{}, len(f.series))
	for k, v := range f.series {
		snapshot[k] = v
	}
	f.mu.Unlock()
	sort.Strings(keys)

	if f.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
		return err
	}
	for _, key := range keys {
		var values []string
		if len(f.labelNames) > 0 {
			values = strings.Split(key, "\x1f")
		}
		switch s := snapshot[key].(type) {
		case *Counter:
			if _, err := fmt.Fprintf(w, "%s%s %d\n",
				f.name, formatLabels(f.labelNames, values, "", ""), s.Value()); err != nil {
				return err
			}
		case *Gauge:
			if _, err := fmt.Fprintf(w, "%s%s %s\n",
				f.name, formatLabels(f.labelNames, values, "", ""), formatValue(s.Value())); err != nil {
				return err
			}
		case *Histogram:
			if err := s.write(w, f.name, f.labelNames, values); err != nil {
				return err
			}
		}
	}
	return nil
}

// LintExposition returns the names of registered families that would
// render without a # HELP line (empty help text). Every first
// registration of a masc_* family must document itself; the
// exposition-lint tests fail on what this returns.
func (r *Registry) LintExposition() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var bad []string
	for name, f := range r.families {
		if f.help == "" {
			bad = append(bad, name)
		}
	}
	sort.Strings(bad)
	return bad
}

func (h *Histogram) write(w io.Writer, name string, labelNames, values []string) error {
	var cum uint64
	for i, ub := range h.buckets {
		cum += h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			name, formatLabels(labelNames, values, "le", formatValue(ub)), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
		name, formatLabels(labelNames, values, "le", "+Inf"), h.Count()); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n",
		name, formatLabels(labelNames, values, "", ""), formatValue(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n",
		name, formatLabels(labelNames, values, "", ""), h.Count())
	return err
}
