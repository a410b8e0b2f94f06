//go:build linux

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/masc-project/masc/internal/loadgen"
	"github.com/masc-project/masc/internal/soap"
)

// workload is one traffic mix. Every epoch of it boots a fresh daemon
// on a fresh data dir and sends exactly warmup+ops requests, so two
// commits do the same work and leave the same state: three costs in
// mascd grow with uptime (README, "Uptime-dependent costs"), and a
// time-boxed window would let the faster commit run further into them.
type workload struct {
	name    string
	path    string                 // gateway path the load is posted to
	build   func(*gen, int) string // request i
	op      string                 // payload element of the request
	reply   string                 // element every gateway reply must carry
	ops     int                    // measured requests per epoch
	warmup  int                    // requests sent and discarded before the window
	dead    bool                   // an unreachable third Retailer is registered before the warm-up
	process bool                   // the load starts process instances: workflow engine and store are in the path
	cluster bool                   // two daemons, client c posts to node c, the conversation key decides who serves
	traced  int                    // requests of the traced replica run
}

// The op counts are frozen: they size one epoch at 1.5-4 s on the
// 2-core reference box, so that several epochs fit in run_seconds and
// every metric is a median over them.
var workloads = []*workload{
	{name: "vep_small", path: "/vep/Retailer", build: (*gen).catalogSmall, op: "getCatalog", reply: "getCatalogResponse",
		ops: 10000, warmup: 1000, traced: 2000},
	{name: "vep_passthru", path: "/vep/Retailer", build: (*gen).catalogLarge, op: "getCatalog", reply: "getCatalogResponse",
		ops: 1200, warmup: 150, traced: 500},
	{name: "vep_large", path: "/vep/Retailer", build: (*gen).orderLarge, op: "submitOrder", reply: "submitOrderResponse",
		ops: 1200, warmup: 150, traced: 500},
	{name: "vep_faulty", path: "/vep/Retailer", build: (*gen).catalogSmall, op: "getCatalog", reply: "getCatalogResponse",
		ops: 3000, warmup: 300, dead: true, traced: 2000},
	{name: "proc_durable", path: "/process/OrderingProcess", build: (*gen).catalogSmall, op: "getCatalog", reply: "submitOrderResponse",
		ops: 1000, warmup: 100, process: true, traced: 500},
	{name: "cluster_sprayed", path: "/vep/Retailer", build: (*gen).catalogSmall, op: "getCatalog", reply: "getCatalogResponse",
		ops: 5000, warmup: 500, cluster: true, traced: 2000},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

const (
	clients      = 2 // closed loop: 2 keep-alive connections, zero think time
	deadBackend  = "inproc://bench/dead"
	directPath   = "/svc/scm/retailer-a"
	rssLimitMB   = 2048
	convHeader   = "X-Masc-Conversation"
	opTimeout    = 10 * time.Second
	contentType  = "text/xml; charset=utf-8"
	directDivide = 3 // the direct phase sends ops/3 requests
)

// addDeadBackend registers an address nothing listens on as a third
// Retailer: round-robin sends 1 in 3 first attempts there, which the
// monitor classifies ServiceUnavailableFault and the bench policy
// recovers by retry-then-substitute.
func addDeadBackend(h *harness, d *daemon) error {
	req, err := http.NewRequestWithContext(h.ctx, http.MethodPost, d.base+"/api/v1/veps/Retailer/services",
		strings.NewReader(`{"address":"`+deadBackend+`"}`))
	if err != nil {
		return err
	}
	resp, err := h.api.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode/100 != 2 || !strings.Contains(string(body), deadBackend) {
		return fmt.Errorf("register %s: HTTP %d: %.200s", deadBackend, resp.StatusCode, body)
	}
	return nil
}

// phase is one measured stretch of load against running daemons with a
// counter reading on either side.
type phase struct {
	sum           loadgen.Summary
	before, after []*sample
	genCPU        time.Duration // load generator's own CPU time
	firstErr      error
}

func (p *phase) ops() float64 { return float64(p.sum.Requests) }

// delta is the growth of a metric family over the phase, summed over
// the daemons.
func (p *phase) delta(family string, labels ...string) float64 {
	var d float64
	for i := range p.after {
		d += p.after[i].sum(family, labels...) - p.before[i].sum(family, labels...)
	}
	return d
}

func (p *phase) memDelta(field string) float64 {
	var d float64
	for i := range p.after {
		d += p.after[i].mem[field] - p.before[i].mem[field]
	}
	return d
}

func (p *phase) cpuUS() float64 {
	var d float64
	for i := range p.after {
		d += p.after[i].cpuUS - p.before[i].cpuUS
	}
	return d
}

// gcPauseNs sums the stop-the-world pauses of the GC cycles that ran
// during the phase. MemStats keeps the last 256; beyond that the mean
// of those 256 stands for the rest.
func (p *phase) gcPauseNs() float64 {
	var total float64
	for i, a := range p.after {
		cycles := int(a.mem["NumGC"] - p.before[i].mem["NumGC"])
		if cycles <= 0 || len(a.pauseNs) == 0 {
			continue
		}
		n := cycles
		if n > len(a.pauseNs) {
			n = len(a.pauseNs)
		}
		var sum float64
		for k := 0; k < n; k++ {
			sum += a.pauseNs[(int(a.mem["NumGC"])-1-k+len(a.pauseNs)*2)%len(a.pauseNs)]
		}
		total += sum / float64(n) * float64(cycles)
	}
	return total
}

// epoch is everything one boot-to-stop cycle measured.
type epoch struct {
	setup    time.Duration
	window   *phase
	direct   *phase  // -trace 1 only: bare forwarding of the same requests
	recoverS float64 // -trace 1 only
	dirBytes float64 // -trace 1 only: data dir size at stop
	served   float64 // gateway requests behind dirBytes
	wall     time.Duration
}

// loader sends requests and validates replies.
type loader struct {
	h     *harness
	bases []string // client c posts to bases[c%len(bases)]
	path  string
	reply string             // element every reply must carry
	build func(i int) string // request i
	key   func(i int) string // X-Masc-Conversation of request i; nil sends none
	http  []*http.Client
}

func newLoader(h *harness, bases []string, path, reply string, build func(int) string) *loader {
	l := &loader{h: h, bases: bases, path: path, reply: reply, build: build}
	for c := 0; c < clients; c++ {
		l.http = append(l.http, &http.Client{Timeout: opTimeout,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}})
	}
	return l
}

func (l *loader) close() {
	for _, c := range l.http {
		c.CloseIdleConnections()
	}
}

// send posts request i from client c. A reply passes only if it is
// HTTP 200 and carries the expected response element; strict
// additionally decodes the envelope and checks the payload (warm-up
// only, to keep the generator cheap inside the window).
func (l *loader) send(ctx context.Context, c, i int, strict bool) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, l.bases[c%len(l.bases)]+l.path,
		strings.NewReader(l.build(i)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", contentType)
	if l.key != nil {
		req.Header.Set(convHeader, l.key(i))
	}
	resp, err := l.http[c].Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(l.reply)) {
		return fmt.Errorf("request %d: HTTP %d: %.300s", i, resp.StatusCode, body)
	}
	if !strict {
		return nil
	}
	env, err := soap.Decode(string(body))
	if err != nil {
		return fmt.Errorf("request %d: reply does not decode: %v", i, err)
	}
	if env.IsFault() || env.Payload == nil || env.PayloadName().Local != l.reply {
		return fmt.Errorf("request %d: reply payload is not %s: %.300s", i, l.reply, body)
	}
	switch l.reply {
	case "getCatalogResponse":
		if n := len(env.Payload.ChildrenNamed("", "Product")); n != 3 {
			return fmt.Errorf("request %d: catalog lists %d products, want 3", i, n)
		}
	case "submitOrderResponse":
		line := env.Payload.Child("", "lineResult")
		if line == nil || (line.ChildText("", "status") != "shipped" && line.ChildText("", "status") != "backordered") {
			return fmt.Errorf("request %d: order reply has no line status: %.300s", i, body)
		}
	}
	return nil
}

// run sends requests first..first+n-1, split between the two clients,
// and reports the first failure alongside the summary.
func (l *loader) run(ctx context.Context, first, n int, strict bool) (loadgen.Summary, error) {
	errc := make(chan error, 1) // holds the first failure only
	sum := loadgen.Run(ctx, loadgen.Config{Clients: clients, RequestsPerClient: n / clients},
		func(ctx context.Context, c, seq int) error {
			err := l.send(ctx, c, first+seq*clients+c, strict)
			if err != nil {
				select {
				case errc <- err:
				default:
				}
			}
			return err
		})
	select {
	case err := <-errc:
		return sum, err
	default:
		return sum, nil
	}
}

// measure runs n requests with a counter reading on either side.
func (l *loader) measure(ctx context.Context, daemons []*daemon, first, n int) (*phase, error) {
	p := &phase{}
	var err error
	if p.before, err = l.h.scrapeAll(daemons, false); err != nil {
		return nil, err
	}
	cpu0 := selfCPU()
	p.sum, p.firstErr = l.run(ctx, first, n, false)
	p.genCPU = selfCPU() - cpu0
	if p.after, err = l.h.scrapeAll(daemons, true); err != nil {
		return nil, err
	}
	return p, nil
}

func (h *harness) scrapeAll(daemons []*daemon, heapFirst bool) ([]*sample, error) {
	var out []*sample
	for _, d := range daemons {
		s, err := h.scrape(d, heapFirst)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runEpoch boots fresh daemons, warms them up, measures the window
// and, with trace, the direct phase and the recovery boot.
func (h *harness) runEpoch(w *workload, g *gen, trace bool) (_ *epoch, err error) {
	t0 := time.Now()
	ops, warmup := w.ops, w.warmup
	nodes := 1
	if w.cluster {
		nodes = 2
	}
	dirs := make([]string, nodes)
	for i := range dirs {
		if dirs[i], err = os.MkdirTemp(h.work, w.name+"-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dirs[i])
	}
	ep := &epoch{}
	var daemons []*daemon
	if w.cluster {
		daemons, ep.setup, err = h.bootCluster(dirs[0], dirs[1])
	} else {
		var d *daemon
		d, ep.setup, err = h.boot(dirs[0])
		daemons = []*daemon{d}
	}
	if err != nil {
		return nil, err
	}
	// The data dirs are discarded, so a finished epoch's daemons are
	// killed, not drained: a cluster node takes ~2 s to leave on SIGTERM.
	defer func() {
		for _, d := range daemons {
			d.kill()
		}
	}()
	defer func() {
		if err != nil {
			err = fmt.Errorf("%w\nmascd stderr tail: %s", err, daemons[0].stderr)
		}
	}()
	if w.dead {
		if err := addDeadBackend(h, daemons[0]); err != nil {
			return nil, err
		}
	}

	// The RSS guard aborts an epoch whose daemon passes 2 GB: the
	// process workload's per-instance cost grows with instances run.
	ctx, cancel := context.WithCancelCause(h.ctx)
	guardDone := make(chan struct{})
	defer func() {
		cancel(nil)
		<-guardDone
	}()
	go func() {
		defer close(guardDone)
		t := time.NewTicker(200 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				for _, d := range daemons {
					var s sample
					if s.readProc(d.cmd.Process.Pid) == nil && s.rssMB > rssLimitMB {
						cancel(fmt.Errorf("daemon RSS %.0f MB passed the %d MB guard", s.rssMB, rssLimitMB))
						return
					}
				}
			}
		}
	}()

	build := func(i int) string { return w.build(g, i) }
	var bases []string
	for _, d := range daemons {
		bases = append(bases, d.base)
	}
	l := newLoader(h, bases, w.path, w.reply, build)
	if w.cluster {
		l.key = g.conversation // the ring routes on it: about half the requests hop
	}
	defer l.close()
	// Warm-up requests are numbered after the window's, so the window
	// always sends requests 0..ops-1.
	if _, err := l.run(ctx, ops, warmup, true); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if ep.window, err = l.measure(ctx, daemons, 0, ops); err != nil {
		return nil, err
	}
	if cause := context.Cause(ctx); cause != nil {
		return nil, cause
	}
	if !trace {
		ep.wall = time.Since(t0)
		return ep, nil
	}

	// Bare forwarding of the same request bytes through /svc/, on the
	// same warmed daemon: the difference to the window is mediation.
	dl := newLoader(h, bases[:1], directPath, w.op+"Response", build)
	defer dl.close()
	if _, err := dl.run(ctx, ops, warmup/2, true); err != nil {
		return nil, fmt.Errorf("direct warm-up: %w", err)
	}
	if ep.direct, err = dl.measure(ctx, daemons[:1], 0, ops/directDivide); err != nil {
		return nil, err
	}

	// Recovery: stop cleanly, boot again on the populated data dir.
	for _, d := range daemons {
		d.stop()
	}
	ep.dirBytes = dirBytes(dirs[0])
	ep.served = float64(ops+warmup) / float64(nodes)
	t1 := time.Now()
	d, err := h.start(dirs[0], "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("recovery boot: %w", err)
	}
	defer d.kill()
	if err := h.awaitReady(d.base+"/api/v1/readyz", nil); err != nil {
		return nil, fmt.Errorf("recovery boot: %w", err)
	}
	ep.recoverS = time.Since(t1).Seconds()
	if w.process {
		// Completed instances are not listed after a restart; each
		// leaves one checkpoint key, so the key count of the recovered
		// store shows that every instance's chain was read back.
		body, err := h.get(d.base + "/api/v1/healthz")
		if err != nil {
			return nil, err
		}
		var hz struct {
			Store struct {
				Keys int `json:"keys"`
			} `json:"store"`
		}
		if err := json.Unmarshal(body, &hz); err != nil {
			return nil, err
		}
		if hz.Store.Keys < ops+warmup {
			return nil, fmt.Errorf("recovery found %d checkpoint keys after %d instances", hz.Store.Keys, ops+warmup)
		}
	}
	ep.wall = time.Since(t0)
	return ep, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// p999 is the nearest-rank 99.9th percentile of the successful
// round trips; loadgen.Summary stops at p99.
func p999(sum loadgen.Summary) float64 {
	var lat []time.Duration
	for _, o := range sum.Outcomes {
		if o.Err == nil {
			lat = append(lat, o.Latency)
		}
	}
	if len(lat) == 0 {
		return 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return ms(lat[int(math.Ceil(0.999*float64(len(lat))))-1])
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// endToEnd is what a caller of mascd sees, from one epoch.
func (ep *epoch) endToEnd() map[string]float64 {
	p := ep.window
	var hwm float64
	for _, s := range p.after {
		hwm += s.hwmMB
	}
	return map[string]float64{
		"rps":                p.sum.Throughput,
		"p50_ms":             ms(p.sum.P50),
		"p95_ms":             ms(p.sum.P95),
		"cpu_us_per_op":      ratio(p.cpuUS(), p.ops()),
		"allocs_per_op":      ratio(p.memDelta("Mallocs"), p.ops()),
		"alloc_bytes_per_op": ratio(p.memDelta("TotalAlloc"), p.ops()),
		"rss_peak_mb":        hwm,
		"setup_s":            ep.setup.Seconds(),
	}
}

// scraped is the per-layer view from the daemon's own counters
// (source 1 of README "Per-layer metrics"). The direct-phase, recovery
// and data-dir numbers are real only for a -trace 1 epoch.
func (ep *epoch) scraped() map[string]float64 {
	p := ep.window
	ops := p.ops()
	var goroutines float64
	for _, s := range p.after {
		goroutines += s.sum("masc_go_goroutines")
	}
	ckpt := p.delta("masc_store_checkpoint_records_total")
	m := map[string]float64{
		"bus.invoke_us_per_op":                ratio(p.delta("masc_vep_invocation_seconds_sum")*1e6, ops),
		"bus.attempts_per_op":                 ratio(p.delta("masc_vep_attempts_total"), ops),
		"bus.faults_per_op":                   ratio(p.delta("masc_vep_faults_total"), ops),
		"bus.adapted_share":                   ratio(p.delta("masc_vep_adaptations_total"), p.delta("masc_vep_invocation_seconds_count")),
		"monitor.evals_per_op":                ratio(p.delta("masc_decision_evaluations_total", `site="monitor"`), ops),
		"decision.eval_us_per_eval":           ratio(p.delta("masc_decision_eval_seconds_sum")*1e6, p.delta("masc_decision_eval_seconds_count")),
		"telemetry.decision_log_bytes_per_op": ratio(p.delta("masc_decision_log_bytes_total"), ops),
		"telemetry.flightrec_ok_per_kop":      ratio(p.delta("masc_flightrec_captures_total", `outcome="ok"`)*1e3, ops),
		"telemetry.flightrec_dropped_per_kop": ratio(p.delta("masc_flightrec_captures_total", `outcome="dropped"`)*1e3, ops),
		"workflow.ckpt_records_per_op":        ratio(ckpt, ops),
		"workflow.ckpt_bytes_per_op":          ratio(p.delta("masc_store_checkpoint_bytes_sum"), ops),
		"workflow.ckpt_delta_share":           ratio(p.delta("masc_store_checkpoint_records_total", `kind="delta"`), ckpt),
		"store.fsyncs_per_op":                 ratio(p.delta("masc_store_fsyncs_total"), ops),
		"store.fsync_ms_mean":                 ratio(p.delta("masc_store_fsync_seconds_sum")*1e3, p.delta("masc_store_fsync_seconds_count")),
		"store.commit_batch_mean":             ratio(p.delta("masc_store_commit_batch_records_sum"), p.delta("masc_store_commit_batch_records_count")),
		"store.wal_bytes_per_op":              ratio(ep.dirBytes, ep.served),
		"store.recover_s":                     ep.recoverS,
		"cluster.forwarded_share":             ratio(p.delta("masc_cluster_forwarded_total", `direction="out"`), ops),
		"cluster.forward_us_per_fwd":          ratio(p.delta("masc_cluster_forward_seconds_sum")*1e6, p.delta("masc_cluster_forward_seconds_count")),
		"cluster.forward_errors":              p.delta("masc_cluster_forward_errors_total"),
		"runtime.gc_cycles_per_kop":           ratio(p.memDelta("NumGC")*1e3, ops),
		"runtime.gc_pause_share":              ratio(p.gcPauseNs(), float64(p.sum.Duration)),
		"runtime.goroutines_end":              goroutines,
		"loadgen.p99_ms":                      ms(p.sum.P99),
		"loadgen.p999_ms":                     p999(p.sum),
		"loadgen.max_ms":                      ms(p.sum.Max),
		"loadgen.cpu_share":                   ratio(float64(p.genCPU), float64(p.sum.Duration)),
	}
	if d := ep.direct; d != nil {
		m["transport.direct_cpu_us_per_op"] = ratio(d.cpuUS(), d.ops())
		m["transport.direct_allocs_per_op"] = ratio(d.memDelta("Mallocs"), d.ops())
		m["bus.mediation_cpu_us_per_op"] = ratio(p.cpuUS(), ops) - m["transport.direct_cpu_us_per_op"]
		m["bus.mediation_allocs_per_op"] = ratio(p.memDelta("Mallocs"), ops) - m["transport.direct_allocs_per_op"]
	}
	return m
}

// sane fails the run when a workload has stopped stressing the layer
// it exists for.
func (w *workload) sane(m map[string]float64) error {
	in := func(name string, lo, hi float64) error {
		if v := m[name]; v < lo || v > hi {
			return fmt.Errorf("%s: %s = %.4g, want %g..%g: the workload no longer exercises its layer", w.name, name, v, lo, hi)
		}
		return nil
	}
	checks := []error{in("cluster.forward_errors", 0, 0)}
	if w.cluster {
		checks = append(checks, in("cluster.forwarded_share", 0.4, 0.6))
	} else {
		checks = append(checks, in("cluster.forwarded_share", 0, 0))
	}
	if w.dead {
		checks = append(checks, in("bus.adapted_share", 0.30, 0.37))
	} else {
		checks = append(checks, in("bus.adapted_share", 0, 0))
	}
	if w.process {
		checks = append(checks, in("store.fsyncs_per_op", math.SmallestNonzeroFloat64, math.Inf(1)))
	} else {
		checks = append(checks, in("store.fsyncs_per_op", 0, 0), in("monitor.evals_per_op", 2, math.Inf(1)))
	}
	for _, err := range checks {
		if err != nil {
			return err
		}
	}
	return nil
}

// result is one run of one workload: the contract's last line, plus
// what -out keeps for -compare.
type result struct {
	Workload  string                `json:"workload,omitempty"`
	Seed      int64                 `json:"seed,omitempty"`
	InputSHA  string                `json:"input_sha,omitempty"`
	Epochs    int                   `json:"epochs,omitempty"`
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runE2E repeats fixed-count epochs until the time budget is used and
// reports each end-to-end metric as the median over the epochs.
func (h *harness) runE2E(spec *benchSpec, w *workload, seed int64, budget time.Duration) (*result, error) {
	g := newGen(seed)
	res := &result{Workload: w.name, Seed: seed, InputSHA: inputSHA(func(i int) string { return w.build(g, i) }, w.ops)}
	perEpoch := map[string][]float64{}
	start := time.Now()
	var last time.Duration
	for res.Epochs == 0 || time.Since(start)+last <= budget {
		ep, err := h.runEpoch(w, g, false)
		if err != nil {
			return nil, err
		}
		last = ep.wall
		res.Epochs++
		res.Attempted += ep.window.sum.Requests
		res.Failed += ep.window.sum.Failures
		if ep.window.firstErr != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, ep.window.firstErr)
		} else if err := w.sane(ep.scraped()); err != nil {
			return nil, err
		}
		for name, v := range ep.endToEnd() {
			perEpoch[name] = append(perEpoch[name], v)
		}
	}
	res.Correct = res.Failed == 0
	values := map[string]float64{}
	for name, vs := range perEpoch {
		values[name] = median(vs)
	}
	var err error
	res.Metrics, err = spec.render(spec.EndToEnd, values)
	return res, err
}

func median(vs []float64) float64 {
	_, m, _ := quartiles(vs)
	return m
}

// runTraced gathers the per-layer metrics from their three sources:
// one scraped epoch against the real daemon (with the direct phase and
// the recovery boot), the layer bench, and the traced replica.
func (h *harness) runTraced(spec *benchSpec, w *workload, seed int64) (*result, error) {
	g := newGen(seed)
	ep, err := h.runEpoch(w, g, true)
	if err != nil {
		return nil, err
	}
	if ep.window.firstErr != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, ep.window.firstErr)
	}
	values := ep.scraped()
	if err := w.sane(values); err != nil && ep.window.firstErr == nil {
		return nil, err
	}
	layers, err := h.runLayers(g)
	if err != nil {
		return nil, err
	}
	spans, replicaFailed, err := h.runReplica(w, g)
	if err != nil {
		return nil, err
	}
	for _, m := range []map[string]float64{layers, spans} {
		for name, v := range m {
			values[name] = v
		}
	}
	res := &result{Workload: w.name, Seed: seed, Epochs: 1,
		InputSHA:  inputSHA(func(i int) string { return w.build(g, i) }, w.ops),
		Attempted: ep.window.sum.Requests + 2*w.traced,
		Failed:    ep.window.sum.Failures + replicaFailed,
	}
	res.Correct = res.Failed == 0
	res.Metrics, err = spec.render(spec.PerLayer, values)
	return res, err
}
