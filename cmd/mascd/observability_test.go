package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/masc-project/masc/internal/bus"
	"github.com/masc-project/masc/internal/event"
	"github.com/masc-project/masc/internal/policy"
	"github.com/masc-project/masc/internal/scm"
	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/telemetry"
	"github.com/masc-project/masc/internal/telemetry/flightrec"
	"github.com/masc-project/masc/internal/telemetry/slo"
	"github.com/masc-project/masc/internal/transport"
	"github.com/masc-project/masc/internal/workflow"
)

// testObservabilityDaemon builds a daemon with the full self-
// observation stack wired — SLO engine, flight recorder, event bus —
// plus a "Flaky" VEP whose only backend does not exist, so every
// invocation is a classified fault.
func testObservabilityDaemon(t *testing.T) (*daemon, *flightrec.Recorder) {
	t.Helper()
	network := transport.NewNetwork()
	deployment, err := scm.Deploy(network, nil, scm.DeployConfig{Retailers: 2})
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New(64)
	repo := testRepository(t, tel, defaultPolicies)
	events := event.NewBus()
	gateway := bus.New(network,
		bus.WithPolicyRepository(repo),
		bus.WithTelemetry(tel),
		bus.WithEventBus(events))
	if _, err := gateway.CreateVEP(bus.VEPConfig{
		Name:     "Retailer",
		Services: deployment.RetailerAddrs,
		Contract: scm.RetailerContract(),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := gateway.CreateVEP(bus.VEPConfig{
		Name:     "Flaky",
		Services: []string{"svc/scm/missing"},
	}); err != nil {
		t.Fatal(err)
	}

	engine := slo.NewEngine(
		[]slo.Objective{{Subject: "vep:Flaky", Availability: 0.99, MinSamples: 3}},
		slo.Options{Registry: tel.Registry(), Journal: tel.Logs()})
	gateway.SetInvocationObserver(engine)

	rec, err := flightrec.New(flightrec.Options{
		Dir:         filepath.Join(t.TempDir(), "flightrec"),
		Telemetry:   tel,
		SettleDelay: 50 * time.Millisecond,
		MinInterval: time.Nanosecond,
		SLOState:    func() interface{} { return engine.Status() },
	})
	if err != nil {
		t.Fatal(err)
	}
	rec.Attach(events)
	t.Cleanup(rec.Close)

	d := &daemon{
		gateway: gateway,
		network: network,
		repo:    repo,
		tel:     tel,
		start:   time.Now(),
		engine:  workflow.NewEngine(gateway, workflow.WithTelemetry(tel)),
		slo:     engine,
		flight:  rec,
	}
	if err := d.setupWorkflow(); err != nil {
		t.Fatal(err)
	}
	return d, rec
}

// failFlaky drives one doomed invocation through the gateway's HTTP
// front door, so the exchange is traced like production traffic.
func failFlaky(t *testing.T, srv *httptest.Server) {
	t.Helper()
	inv := &transport.HTTPInvoker{}
	req := soap.NewRequest(scm.NewGetCatalogRequest("tv", 0))
	soap.Addressing{To: "vep:Flaky", Action: "getCatalog"}.Apply(req)
	resp, err := inv.Invoke(context.Background(), srv.URL+"/vep/Flaky", req)
	if err == nil && !resp.IsFault() {
		t.Fatal("invocation of the missing backend succeeded")
	}
}

func TestObservabilityEndToEnd(t *testing.T) {
	d, rec := testObservabilityDaemon(t)
	srv := httptest.NewServer(d.routes(false))
	defer srv.Close()

	for i := 0; i < 6; i++ {
		failFlaky(t, srv)
	}
	if !rec.WaitIdle(10 * time.Second) {
		t.Fatal("flight recorder never went idle")
	}

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
	if len(report.Subjects) != 1 || report.Subjects[0].Subject != "vep:Flaky" {
		t.Fatalf("slo subjects = %+v", report.Subjects)
	}
	if !report.Subjects[0].Burning {
		t.Fatalf("vep:Flaky not burning: %+v", report.Subjects[0])
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
	if len(ready.SLOBurning) != 1 || ready.SLOBurning[0] != "vep:Flaky" {
		t.Fatalf("slo_burning = %v", ready.SLOBurning)
	}
	if !strings.Contains(strings.Join(ready.Reasons, "\n"), "slo vep:Flaky") {
		t.Fatalf("reasons = %v, want an slo reason", ready.Reasons)
	}

	// The flight recorder captured fetchable bundles.
	hr3, err := srv.Client().Get(srv.URL + "/api/v1/flightrec")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Bundles []flightrec.Summary `json:"bundles"`
	}
	if err := json.NewDecoder(hr3.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	hr3.Body.Close()
	if len(listing.Bundles) == 0 {
		t.Fatal("no flight-recorder bundles after classified faults")
	}

	hr4, err := srv.Client().Get(srv.URL + "/api/v1/flightrec/" + listing.Bundles[0].ID)
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
	d := testDaemon(t)
	if _, err := d.gateway.CreateVEP(bus.VEPConfig{
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
		_, _ = d.gateway.Invoke(context.Background(), "vep:Guarded", req)
	}

	srv := httptest.NewServer(d.routes(false))
	defer srv.Close()
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

// TestObservabilityEndpointsNilSafe covers the testDaemon shape — no
// SLO engine, no flight recorder — which is also mascd without
// -data-dir.
func TestObservabilityEndpointsNilSafe(t *testing.T) {
	d := testDaemon(t)
	srv := httptest.NewServer(d.routes(false))
	defer srv.Close()

	hr, err := srv.Client().Get(srv.URL + "/api/v1/slo")
	if err != nil {
		t.Fatal(err)
	}
	var report slo.Report
	if err := json.NewDecoder(hr.Body).Decode(&report); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != 200 || len(report.Subjects) != 0 {
		t.Fatalf("nil-engine slo = %d %+v", hr.StatusCode, report)
	}

	hr2, err := srv.Client().Get(srv.URL + "/api/v1/flightrec")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Bundles []flightrec.Summary `json:"bundles"`
	}
	if err := json.NewDecoder(hr2.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	hr2.Body.Close()
	if hr2.StatusCode != 200 || len(listing.Bundles) != 0 {
		t.Fatalf("nil-recorder flightrec = %d %+v", hr2.StatusCode, listing)
	}

	hr3, err := srv.Client().Get(srv.URL + "/api/v1/flightrec/fr-000001-x")
	if err != nil {
		t.Fatal(err)
	}
	hr3.Body.Close()
	if hr3.StatusCode != 404 {
		t.Fatalf("nil-recorder bundle fetch = %d, want 404", hr3.StatusCode)
	}

	// readyz stays 200 with no SLO engine and healthy backends.
	hr4, err := srv.Client().Get(srv.URL + "/api/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	hr4.Body.Close()
	if hr4.StatusCode != 200 {
		t.Fatalf("readyz without slo engine = %d", hr4.StatusCode)
	}
}

// TestExpositionLintFullStack registers the whole daemon's metric
// surface (bus, store via testDaemon's engine, SLO, runtime collector)
// and asserts every family carries help text.
func TestExpositionLintFullStack(t *testing.T) {
	d, _ := testObservabilityDaemon(t)
	telemetry.NewRuntimeCollector(d.tel.Registry())
	srv := httptest.NewServer(d.routes(false))
	defer srv.Close()
	failFlaky(t, srv) // populate lazily-registered series
	if missing := d.tel.Registry().LintExposition(); len(missing) != 0 {
		t.Fatalf("metric families without help text: %v", missing)
	}
}
