// Command mascd runs the MASC middleware as a real HTTP deployment:
// the SCM services are hosted on local HTTP ports, a wsBus gateway
// endpoint mediates them through a Retailer VEP with the Table 1
// recovery policies, and (optionally) a policy document supplied with
// -policies — or a whole bundle directory of *.xml documents supplied
// with -policy-dir — replaces the built-in one. Policies are compiled
// to an immutable decision IR and swapped atomically on every change.
// Send SOAP POSTs at the gateway:
//
//	mascd -listen :8080
//	curl -s -X POST --data '<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"><e:Body><getCatalog xmlns="urn:wsi:scm"><category>tv</category></getCatalog></e:Body></e:Envelope>' http://localhost:8080/vep/Retailer
//
// Everything else the daemon serves is the management API under
// /api/v1 — metrics, traces, logs, health, SLOs, decisions, policies,
// VEPs, instances, cluster status — documented endpoint by endpoint in
// docs/observability.md; every error response there uses the envelope
// {"error":{"code","message"}}. /debug/pprof is mounted only with
// -debug.
//
// The OrderingProcess composition is deployed and hosted at
// /process/OrderingProcess. With -data-dir <dir> the daemon opens a
// WAL+snapshot store there (-sync always|batched|off picks the fsync
// policy): instance checkpoints, pending retry-queue entries, and the
// DLQ become durable, and on startup interrupted instances are rebuilt
// in suspended state, listed under /api/v1/instances, and resumable
// via POST .../resume. Store health appears in /api/v1/healthz and as
// masc_store_* metrics.
//
// Checkpoints are written as delta chains (docs/persistence.md):
// -ckpt-anchor-every <n> caps a chain at n records before a fresh full
// snapshot, -ckpt-queue <n> bounds the async checkpoint queue (the
// backpressure point for batched/off sync modes), and
// -ckpt-durable-finish makes instance completion wait for the terminal
// checkpoint's fsync, not just its enqueue.
//
// Every policy evaluation leaves a decision record in a bounded
// in-memory ring (-decision-ring caps it, default 4096). With
// -data-dir the records also stream to size-capped NDJSON segments
// under <data-dir>/decisions; -decision-log-segment caps one segment's
// bytes and -decision-log-keep bounds how many segments are retained.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/masc-project/masc/internal/bus"
	"github.com/masc-project/masc/internal/event"
	"github.com/masc-project/masc/internal/policy"
	"github.com/masc-project/masc/internal/policy/compile"
	"github.com/masc-project/masc/internal/scm"
	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/store"
	"github.com/masc-project/masc/internal/telemetry"
	"github.com/masc-project/masc/internal/telemetry/decision"
	"github.com/masc-project/masc/internal/telemetry/flightrec"
	"github.com/masc-project/masc/internal/telemetry/slo"
	"github.com/masc-project/masc/internal/transport"
	"github.com/masc-project/masc/internal/version"
	"github.com/masc-project/masc/internal/workflow"
)

const defaultPolicies = `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="gateway-recovery">
  <AdaptationPolicy name="retry-then-failover" subject="vep:Retailer" priority="10" kind="correction">
    <OnEvent type="fault.detected"/>
    <Actions>
      <Retry maxAttempts="3" delay="2s"/>
      <Substitute selection="bestResponseTime"/>
    </Actions>
  </AdaptationPolicy>
</PolicyDocument>`

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mascd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	cfg, err := parseFlags(args, os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return nil
	}
	if err != nil {
		return err
	}
	if cfg.version {
		fmt.Println("mascd", version.Version)
		return nil
	}

	// Backend SCM services on an in-process network but also exposed
	// over HTTP so external tools can hit them directly.
	network := transport.NewNetwork()
	deployment, err := scm.Deploy(network, nil, scm.DeployConfig{Retailers: 2})
	if err != nil {
		return err
	}

	tel := telemetry.New(0)
	events := event.NewBus()

	repo, err := newRepository(tel)
	if err != nil {
		return err
	}
	if cfg.policyDir != "" {
		bundle, err := compile.LoadDir(cfg.policyDir)
		if err != nil {
			return err
		}
		if err := repo.ReplaceAll(bundle.Docs); err != nil {
			return err
		}
	} else {
		policyXML := defaultPolicies
		if cfg.policyPath != "" {
			raw, err := os.ReadFile(cfg.policyPath)
			if err != nil {
				return err
			}
			policyXML = string(raw)
		}
		if _, err := repo.LoadXML(policyXML); err != nil {
			return err
		}
	}

	// Decision provenance: every policy-evaluation site records into
	// this ring; with -data-dir the records additionally stream to a
	// durable NDJSON log under <data-dir>/decisions.
	dec := decision.NewRecorder(cfg.decisionRing, tel.Registry())

	d := &daemon{
		network:   network,
		repo:      repo,
		policyDir: cfg.policyDir,
		tel:       tel,
		start:     time.Now(),
		ckptOpts:  cfg.ckpt,
		decisions: dec,
	}
	if cfg.dataDir != "" {
		// Cluster mode keeps every WAL segment (no snapshot compaction):
		// followers replicate the raw log, and a compacted segment would
		// break their cursors mid-stream.
		st, err := openDataDir(cfg.dataDir, cfg.syncMode, d, cfg.cluster.enabled())
		if err != nil {
			return err
		}
		d.st = st
		defer d.st.Close()
	}

	busOpts := []bus.Option{
		bus.WithPolicyRepository(repo),
		bus.WithEventBus(events),
		bus.WithTelemetry(tel),
		bus.WithDecisions(dec),
	}
	if d.st != nil {
		busOpts = append(busOpts, bus.WithStore(d.st))
	}
	gateway := bus.New(network, busOpts...)
	d.gateway = gateway
	unTap := tel.Tracer.TapEventBus(events)
	defer unTap()
	if _, err := gateway.CreateVEP(bus.VEPConfig{
		Name:      "Retailer",
		Services:  deployment.RetailerAddrs,
		Contract:  scm.RetailerContract(),
		Selection: policy.SelectRoundRobin,
	}); err != nil {
		return err
	}

	// Self-observation plane: SLO targets derived from the monitoring
	// policies (falling back to 99% availability per VEP), runtime
	// metrics for allocation pressure, and — with -data-dir — the fault
	// flight recorder.
	telemetry.NewRuntimeCollector(tel.Registry())
	var subjects []string
	for _, name := range gateway.VEPs() {
		subjects = append(subjects, bus.SubjectPrefix+name)
	}
	d.slo = slo.NewEngine(
		slo.DeriveObjectives(repo, subjects, slo.Objective{Availability: 0.99}),
		slo.Options{Registry: tel.Registry(), Journal: tel.Logs(), Decisions: dec})
	gateway.SetInvocationObserver(d.slo)
	sloStop := make(chan struct{})
	defer close(sloStop)
	go func() {
		t := time.NewTicker(10 * time.Second)
		defer t.Stop()
		for {
			select {
			case <-sloStop:
				return
			case <-t.C:
				d.slo.Tick()
			}
		}
	}()

	if cfg.dataDir != "" {
		rec, err := flightrec.New(flightrec.Options{
			Dir:       filepath.Join(cfg.dataDir, "flightrec"),
			Telemetry: tel,
			SLOState:  func() interface{} { return d.slo.Status() },
			Decisions: dec,
			Node:      cfg.cluster.nodeID,
		})
		if err != nil {
			return err
		}
		rec.Attach(events)
		d.flight = rec
		defer rec.Close()

		cfg.decisionLog.Metrics = tel.Registry()
		dlog, err := decision.OpenLog(filepath.Join(cfg.dataDir, "decisions"), cfg.decisionLog)
		if err != nil {
			return err
		}
		dec.SetSink(dlog)
		defer dlog.Close()
	}

	if cfg.exportURL != "" {
		exp := telemetry.NewExporter(tel.Registry(), telemetry.ExporterOptions{
			URL:      cfg.exportURL,
			Interval: cfg.exportInterval,
			Node:     cfg.listen,
			Version:  version.Version,
			Extra: func() map[string]interface{} {
				return map[string]interface{}{"slo": d.slo.Status()}
			},
			Logger: tel.Logger("export"),
		})
		exp.Start()
		defer exp.Stop()
	}

	// Process layer: the OrderingProcess composition runs over the
	// gateway; with -data-dir its instances (and the retry queue / DLQ)
	// survive restarts, and interrupted instances are rebuilt here.
	d.engine = workflow.NewEngine(gateway,
		workflow.WithEventBus(events),
		workflow.WithTelemetry(tel))
	if err := d.setupWorkflow(); err != nil {
		return err
	}
	if d.persist != nil {
		// Drain the async checkpoint queue before the store closes
		// (deferred closes run last-in-first-out).
		defer d.persist.Close()
	}
	if cfg.cluster.enabled() {
		cr, err := setupCluster(d, cfg.cluster, cfg.dataDir)
		if err != nil {
			return err
		}
		d.cluster = cr
		cr.start()
		defer cr.Stop()
	}
	mux := d.routes(cfg.debug)

	// The startup entry lands in the journal (first /api/v1/logs line)
	// and on stderr as a JSON log line.
	tel.Logger("mascd").Output(os.Stderr).Info("mascd starting",
		"version", version.Version, "listen", cfg.listen,
		"veps", strings.Join(gateway.VEPs(), ","))

	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		return err
	}
	server := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- server.Serve(ln) }()
	fmt.Printf("mascd: SOAP gateway on %s (VEPs: %s; retailers: %s)\n",
		ln.Addr(), strings.Join(gateway.VEPs(), ", "), strings.Join(deployment.RetailerAddrs, ", "))

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case <-sigc:
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		// Shutdown stops the listener and waits for open connections;
		// draining additionally waits for gateway requests accepted
		// before the signal, so recoveries in progress can complete.
		shutdownErr := server.Shutdown(ctx)
		if err := d.drain(ctx); err != nil {
			return err
		}
		return shutdownErr
	}
}

// newRepository returns the daemon's PolicyRepository: every document
// set loaded into it is compiled to the immutable decision IR and
// swapped in atomically, so compile.Lookup on it is never nil.
func newRepository(tel *telemetry.Telemetry) (*policy.Repository, error) {
	repo := policy.NewRepository()
	err := compile.Enable(repo, compile.Options{
		Registry: tel.Registry(),
		Journal:  tel.Logs(),
	})
	return repo, err
}

// daemon holds the running gateway's shared state for HTTP handlers.
type daemon struct {
	gateway   *bus.Bus
	network   *transport.Network
	repo      *policy.Repository
	policyDir string
	tel       *telemetry.Telemetry
	start     time.Time
	engine    *workflow.Engine
	st        *store.Store
	persist   *workflow.PersistenceService
	ckptOpts  workflow.PersistenceOptions
	recovery  workflow.RecoveryReport
	slo       *slo.Engine
	flight    *flightrec.Recorder
	decisions *decision.Recorder
	cluster   *clusterRuntime

	// recMu guards recovery: promotion-time failover merges reports
	// into it while healthz and instance listings read it.
	recMu sync.Mutex

	inflight  sync.WaitGroup
	inflightN atomic.Int64
}

// routes assembles the daemon's HTTP mux. With debug, the pprof
// handlers are mounted under /debug/pprof/.
func (d *daemon) routes(debug bool) *http.ServeMux {
	mux := http.NewServeMux()
	// Gateway endpoints: /vep/<name> mediates through the named VEP.
	// In cluster mode the forwarding middleware wraps them outermost
	// (before StripPrefix, so a proxied request keeps its full URL):
	// exchanges whose conversation is owned by a peer are forwarded
	// there transparently.
	vep := http.Handler(http.StripPrefix("/vep/", d.track(vepHandler(d.gateway, d.tel))))
	// Hosted compositions: /process/<definition> starts one instance
	// per SOAP request and answers with its output.
	proc := http.Handler(http.StripPrefix("/process/", d.track(processHandler(d.engine))))
	if d.cluster != nil {
		vep = d.cluster.node.Forward(clusterKey, vep)
		proc = d.cluster.node.Forward(clusterKey, proc)
	}
	mux.Handle("/vep/", vep)
	mux.Handle("/process/", proc)
	// Direct endpoints: /svc/<address suffix>, e.g. /svc/scm/retailer-a.
	mux.Handle("/svc/", directHandler(d.network))
	d.apiRoutes(mux)
	if d.cluster != nil {
		d.cluster.mount(mux)
	}
	if debug {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// track counts in-flight gateway requests for graceful draining.
func (d *daemon) track(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d.inflight.Add(1)
		d.inflightN.Add(1)
		defer func() {
			d.inflightN.Add(-1)
			d.inflight.Done()
		}()
		h.ServeHTTP(w, r)
	})
}

// drain waits for in-flight gateway requests to finish or ctx to
// expire.
func (d *daemon) drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		d.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("shutdown: %d gateway request(s) still in flight", d.inflightN.Load())
	}
}

// vepLatency is one VEP's invocation-latency quantile estimates (in
// milliseconds), interpolated from the histogram buckets of
// masc_vep_invocation_seconds.
type vepLatency struct {
	VEP   string  `json:"vep"`
	Count uint64  `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
}

// latencyQuantiles reads per-VEP p50/p95/p99 from the invocation
// histogram (nil when no VEP has been invoked yet).
func (d *daemon) latencyQuantiles() []vepLatency {
	hist := d.tel.Registry().Histogram("masc_vep_invocation_seconds", "", nil, "vep")
	var out []vepLatency
	for _, name := range d.gateway.VEPs() {
		h := hist.With(name)
		n := h.Count()
		if n == 0 {
			continue
		}
		out = append(out, vepLatency{
			VEP:   name,
			Count: n,
			P50MS: h.Quantile(0.50) * 1e3,
			P95MS: h.Quantile(0.95) * 1e3,
			P99MS: h.Quantile(0.99) * 1e3,
		})
	}
	return out
}

// healthz reports liveness as JSON: the process is up, for how long,
// what is deployed, and how fast the VEPs are serving.
func (d *daemon) healthz(w http.ResponseWriter, _ *http.Request) {
	mon, adapt := d.repo.Counts()
	status := struct {
		Status             string         `json:"status"`
		Version            string         `json:"version"`
		UptimeSeconds      float64        `json:"uptime_seconds"`
		VEPs               []string       `json:"veps"`
		PolicyRevision     string         `json:"policy_revision,omitempty"`
		PolicyDocuments    []string       `json:"policy_documents"`
		MonitoringPolicies int            `json:"monitoring_policies"`
		AdaptationPolicies int            `json:"adaptation_policies"`
		ProtectionPolicies int            `json:"protection_policies"`
		InflightRequests   int64          `json:"inflight_requests"`
		Instances          int            `json:"instances"`
		Store              *storeStatus   `json:"store,omitempty"`
		Cluster            *clusterHealth `json:"cluster,omitempty"`
		VEPLatency         []vepLatency   `json:"vep_latency,omitempty"`
	}{
		Status:             "ok",
		Version:            version.Version,
		UptimeSeconds:      time.Since(d.start).Seconds(),
		VEPs:               d.gateway.VEPs(),
		PolicyRevision:     compile.Lookup(d.repo).Manifest.Revision,
		PolicyDocuments:    d.repo.Documents(),
		MonitoringPolicies: mon,
		AdaptationPolicies: adapt,
		ProtectionPolicies: d.repo.ProtectionCount(),
		InflightRequests:   d.inflightN.Load(),
		Instances:          len(d.engine.Instances()),
		Store:              d.storeStatus(),
		Cluster:            d.clusterHealth(),
		VEPLatency:         d.latencyQuantiles(),
	}
	writeJSON(w, http.StatusOK, status)
}

// backendHealth is one target's QoS summary in the readiness report.
type backendHealth struct {
	Target         string  `json:"target"`
	Measured       bool    `json:"measured"`
	Invocations    int     `json:"invocations"`
	Failures       int     `json:"failures"`
	Reliability    float64 `json:"reliability"`
	MeanResponseMS float64 `json:"mean_response_ms"`
}

// vepReadiness is one VEP's readiness: it is ready when at least one
// backend is healthy (unmeasured backends get the benefit of the
// doubt; measured ones must have succeeded at least once) and at
// least one backend's circuit breaker admits traffic.
type vepReadiness struct {
	VEP      string            `json:"vep"`
	Ready    bool              `json:"ready"`
	Backends []backendHealth   `json:"backends"`
	Breakers map[string]string `json:"breakers,omitempty"`
}

// readyz reports readiness from real per-backend QoS measurements,
// circuit-breaker state, and the SLO engine: 200 when every VEP has a
// healthy, admitting backend and no SLO is burning its error budget;
// 503 with the JSON reasons otherwise.
func (d *daemon) readyz(w http.ResponseWriter, _ *http.Request) {
	tracker := d.gateway.Tracker()
	var reasons []string
	var veps []vepReadiness
	for _, name := range d.gateway.VEPs() {
		vep, err := d.gateway.VEP(name)
		if err != nil {
			continue
		}
		vr := vepReadiness{VEP: name, Breakers: vep.BreakerStates()}
		healthy := false
		for _, addr := range vep.Services() {
			snap := tracker.Snapshot(addr)
			bh := backendHealth{
				Target:         addr,
				Measured:       snap.Known(),
				Invocations:    snap.Invocations,
				Failures:       snap.Failures,
				Reliability:    snap.Reliability,
				MeanResponseMS: float64(snap.MeanResponse) / float64(time.Millisecond),
			}
			vr.Backends = append(vr.Backends, bh)
			if !bh.Measured || bh.Reliability > 0 {
				healthy = true
			}
		}
		if !healthy {
			reasons = append(reasons, fmt.Sprintf("vep %s: no healthy backend", name))
		}
		// Every backend behind an open breaker means selection has
		// nothing to route to, regardless of measured QoS.
		admitting := len(vr.Breakers) == 0
		for _, state := range vr.Breakers {
			if state != "open" {
				admitting = true
				break
			}
		}
		if !admitting {
			reasons = append(reasons, fmt.Sprintf("vep %s: every backend's circuit breaker is open", name))
		}
		vr.Ready = healthy && admitting
		veps = append(veps, vr)
	}
	burning := d.slo.Burning()
	for _, subject := range burning {
		reasons = append(reasons, fmt.Sprintf("slo %s: error budget burning", subject))
	}
	code := http.StatusOK
	status := "ready"
	if len(reasons) > 0 {
		code = http.StatusServiceUnavailable
		status = "degraded"
	}
	writeJSON(w, code, struct {
		Status     string         `json:"status"`
		Reasons    []string       `json:"reasons,omitempty"`
		SLOBurning []string       `json:"slo_burning,omitempty"`
		VEPs       []vepReadiness `json:"veps"`
	}{Status: status, Reasons: reasons, SLOBurning: burning, VEPs: veps})
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// vepHandler serves SOAP posts addressed to /vep/<name> through the
// bus, and publishes each VEP's abstract contract on GET ?wsdl ("a VEP
// ... exposes an abstract WSDL for accessing the configured services").
// Every mediated request starts a trace, so /api/v1/traces shows the
// gateway → VEP → attempt span tree with recovery annotations.
func vepHandler(gateway *bus.Bus, tel *telemetry.Telemetry) http.Handler {
	soapHandler := &transport.HTTPHandler{Service: transport.HandlerFunc(
		func(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
			name := soap.ReadAddressing(req).To
			if name == "" {
				name = "vep:Retailer"
			}
			// Adopt a caller-propagated trace ID (the MASC TraceID SOAP
			// header) so multi-hop exchanges join one trace.
			traceID, _ := soap.TraceContext(req)
			ctx, span := tel.Traces().StartTraceID(ctx, "gateway "+name, traceID)
			span.SetAttr("route", name)
			resp, err := gateway.Invoke(ctx, name, req)
			span.EndErr(err)
			return resp, err
		})}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && r.URL.Query().Has("wsdl") {
			vep, err := gateway.VEP(strings.Trim(r.URL.Path, "/"))
			if err != nil || vep.Contract() == nil {
				http.NotFound(w, r)
				return
			}
			text, err := vep.Contract().Encode()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "text/xml; charset=utf-8")
			fmt.Fprintln(w, text)
			return
		}
		soapHandler.ServeHTTP(w, r)
	})
}

// directHandler forwards to in-process service addresses
// (inproc://scm/retailer-a etc., named by path suffix, e.g.
// /svc/scm/retailer-a).
func directHandler(network *transport.Network) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		addr := "inproc://" + strings.TrimPrefix(r.URL.Path, "/svc/")
		h := &transport.HTTPHandler{Service: transport.HandlerFunc(
			func(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
				return network.Invoke(ctx, addr, req)
			})}
		h.ServeHTTP(w, r)
	})
}
