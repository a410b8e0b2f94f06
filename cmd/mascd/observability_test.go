package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/masc-project/masc/internal/bus"
	"github.com/masc-project/masc/internal/daemon"
	"github.com/masc-project/masc/internal/event"
	"github.com/masc-project/masc/internal/policy"
	"github.com/masc-project/masc/internal/scm"
	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/telemetry/flightrec"
	"github.com/masc-project/masc/internal/telemetry/slo"
	"github.com/masc-project/masc/internal/transport"
)

// flakyPolicies gives vep:Retailer an availability objective the SLO
// engine evaluates after three samples, and no recovery policy, so a
// fault reaches the caller at once.
const flakyPolicies = `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="gateway-recovery">
  <MonitoringPolicy name="retailer-sla" subject="vep:Retailer">
    <QoSThreshold name="availability-sla" metric="availability" min="0.99" minSamples="3"/>
  </MonitoringPolicy>
</PolicyDocument>`

// bootFlaky boots a daemon with the full self-observation stack on
// disk (flight recorder, decision log) whose Retailer VEP is
// reconfigured to a single backend that does not exist, so every
// invocation is a classified fault.
func bootFlaky(t *testing.T) (*daemon.Daemon, *httptest.Server) {
	t.Helper()
	d, srv := boot(t, daemon.Config{
		Policies: policyFile(t, flakyPolicies),
		DataDir:  t.TempDir(),
		Sync:     "batched",
	})
	retailerServices(t, d, func([]string) []string { return []string{"svc/scm/missing"} })
	return d, srv
}

// failFlaky drives one doomed invocation through the gateway's HTTP
// front door, so the exchange is traced like production traffic.
func failFlaky(t *testing.T, srv *httptest.Server) {
	t.Helper()
	inv := &transport.HTTPInvoker{}
	req := soap.NewRequest(scm.NewGetCatalogRequest("tv", 0))
	soap.Addressing{To: "vep:Retailer", Action: "getCatalog"}.Apply(req)
	resp, err := inv.Invoke(context.Background(), srv.URL+"/vep/Retailer", req)
	if err == nil && !resp.IsFault() {
		t.Fatal("invocation of the missing backend succeeded")
	}
}

// getBundles lists the flight recorder's stored bundles.
func getBundles(t *testing.T, srv *httptest.Server) []flightrec.Summary {
	t.Helper()
	hr, err := srv.Client().Get(srv.URL + "/api/v1/flightrec")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var listing struct {
		Bundles []flightrec.Summary `json:"bundles"`
	}
	decodeJSON(t, hr.Body, &listing)
	return listing.Bundles
}

func TestObservabilityEndToEnd(t *testing.T) {
	_, srv := bootFlaky(t)

	for i := 0; i < 6; i++ {
		failFlaky(t, srv)
	}
	// The recorder captures asynchronously, after the triggering
	// exchange has settled.
	var bundles []flightrec.Summary
	waitUntil(t, 10*time.Second, "a flight-recorder bundle", func() bool {
		bundles = getBundles(t, srv)
		return len(bundles) > 0
	})

	// The SLO report shows the burned budget.
	hr, err := srv.Client().Get(srv.URL + "/api/v1/slo")
	if err != nil {
		t.Fatal(err)
	}
	var report slo.Report
	if err := json.NewDecoder(hr.Body).Decode(&report); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if len(report.Subjects) != 1 || report.Subjects[0].Subject != "vep:Retailer" {
		t.Fatalf("slo subjects = %+v", report.Subjects)
	}
	if !report.Subjects[0].Burning {
		t.Fatalf("vep:Retailer not burning: %+v", report.Subjects[0])
	}
	var availBudget float64 = -1
	for _, s := range report.Subjects[0].SLIs {
		if s.SLI == slo.SLIAvailability {
			availBudget = s.BudgetRemaining
		}
	}
	if availBudget != 0 {
		t.Fatalf("availability budget remaining = %v, want 0 (fully burned)", availBudget)
	}

	// Readiness degrades with the SLO reason.
	hr2, err := srv.Client().Get(srv.URL + "/api/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready struct {
		Status     string   `json:"status"`
		Reasons    []string `json:"reasons"`
		SLOBurning []string `json:"slo_burning"`
	}
	if err := json.NewDecoder(hr2.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	hr2.Body.Close()
	if hr2.StatusCode != 503 || ready.Status != "degraded" {
		t.Fatalf("readyz = %d %+v", hr2.StatusCode, ready)
	}
	if len(ready.SLOBurning) != 1 || ready.SLOBurning[0] != "vep:Retailer" {
		t.Fatalf("slo_burning = %v", ready.SLOBurning)
	}
	if !strings.Contains(strings.Join(ready.Reasons, "\n"), "slo vep:Retailer") {
		t.Fatalf("reasons = %v, want an slo reason", ready.Reasons)
	}

	// The flight recorder's bundles are fetchable.
	hr4, err := srv.Client().Get(srv.URL + "/api/v1/flightrec/" + bundles[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	var bundle flightrec.Bundle
	if err := json.NewDecoder(hr4.Body).Decode(&bundle); err != nil {
		t.Fatal(err)
	}
	hr4.Body.Close()
	if bundle.Trigger.Event != string(event.TypeFaultDetected) {
		t.Fatalf("bundle trigger = %+v", bundle.Trigger)
	}
	if len(bundle.Journal) == 0 {
		t.Fatal("bundle has no journal slice")
	}
	if bundle.TraceID == "" {
		t.Fatal("bundle has no correlated trace ID")
	}
	// The trace ID must actually occur in the bundle's own journal
	// slice — the views cross-reference each other.
	correlated := false
	for _, e := range bundle.Journal {
		if e.Trace == bundle.TraceID {
			correlated = true
		}
	}
	if !correlated {
		t.Fatalf("trace %s not present in the bundle journal", bundle.TraceID)
	}
	if bundle.SLO == nil {
		t.Fatal("bundle has no SLO state")
	}
	if bundle.Goroutines == "" {
		t.Fatal("bundle has no goroutine dump")
	}

	// Missing bundles 404 through the API envelope.
	hr5, err := srv.Client().Get(srv.URL + "/api/v1/flightrec/fr-999999-nope")
	if err != nil {
		t.Fatal(err)
	}
	hr5.Body.Close()
	if hr5.StatusCode != 404 {
		t.Fatalf("missing bundle status = %d", hr5.StatusCode)
	}
}

func TestReadyzDegradedWhenAllBreakersOpen(t *testing.T) {
	d, srv := boot(t, daemon.Config{})
	if _, err := d.Gateway().CreateVEP(bus.VEPConfig{
		Name:     "Guarded",
		Services: []string{"svc/scm/missing"},
		Protection: &policy.ProtectionPolicy{
			Name: "guard",
			Breaker: &policy.BreakerSpec{
				FailureThreshold: 1,
				Cooldown:         time.Hour,
			},
		},
	}); err != nil {
		t.Fatal(err)
	}
	// Two faults trip the single backend's breaker open.
	for i := 0; i < 2; i++ {
		req := soap.NewRequest(scm.NewGetCatalogRequest("tv", 0))
		soap.Addressing{To: "vep:Guarded", Action: "getCatalog"}.Apply(req)
		_, _ = d.Gateway().Invoke(context.Background(), "vep:Guarded", req)
	}

	hr, err := srv.Client().Get(srv.URL + "/api/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var ready struct {
		Status  string   `json:"status"`
		Reasons []string `json:"reasons"`
		VEPs    []struct {
			VEP      string            `json:"vep"`
			Ready    bool              `json:"ready"`
			Breakers map[string]string `json:"breakers"`
		} `json:"veps"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	if hr.StatusCode != 503 || ready.Status != "degraded" {
		t.Fatalf("readyz = %d %+v", hr.StatusCode, ready)
	}
	joined := strings.Join(ready.Reasons, "\n")
	if !strings.Contains(joined, "vep Guarded: every backend's circuit breaker is open") {
		t.Fatalf("reasons = %v, want all-breakers-open for Guarded", ready.Reasons)
	}
	for _, v := range ready.VEPs {
		switch v.VEP {
		case "Guarded":
			if v.Ready {
				t.Fatal("Guarded reported ready with its breaker open")
			}
			if v.Breakers["svc/scm/missing"] != "open" {
				t.Fatalf("Guarded breakers = %v", v.Breakers)
			}
		case "Retailer":
			if !v.Ready {
				t.Fatal("Retailer degraded by Guarded's breaker")
			}
		}
	}
}

// TestObservabilityEndpointsNilSafe covers mascd without -data-dir:
// the SLO engine tracks the VEP, but no flight recorder is attached.
func TestObservabilityEndpointsNilSafe(t *testing.T) {
	_, srv := boot(t, daemon.Config{})

	hr, err := srv.Client().Get(srv.URL + "/api/v1/slo")
	if err != nil {
		t.Fatal(err)
	}
	var report slo.Report
	if err := json.NewDecoder(hr.Body).Decode(&report); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != 200 || len(report.Subjects) != 1 ||
		report.Subjects[0].Subject != "vep:Retailer" || report.Subjects[0].Burning {
		t.Fatalf("idle slo = %d %+v", hr.StatusCode, report)
	}

	if bundles := getBundles(t, srv); len(bundles) != 0 {
		t.Fatalf("nil-recorder flightrec = %+v", bundles)
	}

	hr3, err := srv.Client().Get(srv.URL + "/api/v1/flightrec/fr-000001-x")
	if err != nil {
		t.Fatal(err)
	}
	hr3.Body.Close()
	if hr3.StatusCode != 404 {
		t.Fatalf("nil-recorder bundle fetch = %d, want 404", hr3.StatusCode)
	}

	// readyz stays 200 with an idle SLO engine and healthy backends.
	hr4, err := srv.Client().Get(srv.URL + "/api/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	hr4.Body.Close()
	if hr4.StatusCode != 200 {
		t.Fatalf("readyz on an idle daemon = %d", hr4.StatusCode)
	}
}

// TestExpositionLintFullStack asserts every metric family the whole
// daemon registers (bus, store, SLO, flight recorder, decision log,
// runtime collector) carries help text.
func TestExpositionLintFullStack(t *testing.T) {
	d, srv := bootFlaky(t)
	failFlaky(t, srv) // populate lazily-registered series
	if missing := d.Gateway().Telemetry().Registry().LintExposition(); len(missing) != 0 {
		t.Fatalf("metric families without help text: %v", missing)
	}
}
