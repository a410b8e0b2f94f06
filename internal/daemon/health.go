package daemon

import (
	"fmt"
	"net/http"
	"time"

	"github.com/masc-project/masc/internal/policy/compile"
	"github.com/masc-project/masc/internal/version"
)

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
func (d *Daemon) latencyQuantiles() []vepLatency {
	hist := d.tel.Registry().Histogram("masc_vep_invocation_seconds", "", nil, "vep")
	var out []vepLatency
	for _, name := range d.stack.Bus.VEPs() {
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
// what is deployed, and how fast the VEPs are serving. The policy
// fields all come from one published set, so a bundle swap between
// them cannot mix two bundles in one response.
func (d *Daemon) healthz(w http.ResponseWriter, _ *http.Request) {
	cs := compile.Lookup(d.repo)
	mon, adapt, prot := cs.Counts()
	docs := make([]string, len(cs.Manifest.Documents))
	for i, dm := range cs.Manifest.Documents {
		docs[i] = dm.Name
	}
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
		VEPs:               d.stack.Bus.VEPs(),
		PolicyRevision:     cs.Manifest.Revision,
		PolicyDocuments:    docs,
		MonitoringPolicies: mon,
		AdaptationPolicies: adapt,
		ProtectionPolicies: prot,
		InflightRequests:   d.inflightN.Load(),
		Instances:          len(d.stack.Engine.Instances()),
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
func (d *Daemon) readyz(w http.ResponseWriter, _ *http.Request) {
	tracker := d.stack.Bus.Tracker()
	var reasons []string
	var veps []vepReadiness
	for _, name := range d.stack.Bus.VEPs() {
		vep, err := d.stack.Bus.VEP(name)
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
