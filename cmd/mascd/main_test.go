package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/masc-project/masc/internal/bus"
	"github.com/masc-project/masc/internal/daemon"
	"github.com/masc-project/masc/internal/policy"
	"github.com/masc-project/masc/internal/scm"
	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/telemetry"
	"github.com/masc-project/masc/internal/transport"
	"github.com/masc-project/masc/internal/wsdl"
)

// TestDefaultPoliciesValid fetches the built-in document — what mascd
// loads when neither -policies nor -policy-dir is given — and checks
// it parses and validates.
func TestDefaultPoliciesValid(t *testing.T) {
	_, srv := boot(t, daemon.Config{})
	doc, err := policy.ParseString(builtinPolicies(t, srv))
	if err != nil {
		t.Fatal(err)
	}
	if err := policy.Validate(doc); err != nil {
		t.Fatal(err)
	}
}

func TestVEPHandlerOverHTTP(t *testing.T) {
	_, srv := boot(t, daemon.Config{})

	inv := &transport.HTTPInvoker{}
	req := soap.NewRequest(scm.NewGetCatalogRequest("tv", 0))
	soap.Addressing{To: "vep:Retailer", Action: "getCatalog"}.Apply(req)
	resp, err := inv.Invoke(context.Background(), srv.URL+"/vep/Retailer", req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.IsFault() || len(resp.Payload.ChildrenNamed("", "Product")) == 0 {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestVEPHandlerDefaultsToRetailer(t *testing.T) {
	_, srv := boot(t, daemon.Config{})

	inv := &transport.HTTPInvoker{}
	req := soap.NewRequest(scm.NewGetCatalogRequest("", 0)) // no To header
	resp, err := inv.Invoke(context.Background(), srv.URL+"/vep/", req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.IsFault() {
		t.Fatalf("fault: %v", resp.Fault)
	}
}

func TestDirectHandlerRoutesByPath(t *testing.T) {
	_, srv := boot(t, daemon.Config{})

	inv := &transport.HTTPInvoker{}
	req := soap.NewRequest(scm.NewGetCatalogRequest("audio", 0))
	resp, err := inv.Invoke(context.Background(), srv.URL+"/svc/scm/retailer-b", req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.IsFault() {
		t.Fatalf("fault: %v", resp.Fault)
	}
	if got := len(resp.Payload.ChildrenNamed("", "Product")); got != 3 {
		t.Fatalf("audio products = %d", got)
	}

	// Unknown path maps to a missing endpoint → fault response.
	resp, err = inv.Invoke(context.Background(), srv.URL+"/svc/nope", req)
	if err == nil && !resp.IsFault() {
		t.Fatal("unknown service path succeeded")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("err = %v", err)
	}
	if err := run([]string{"-listen"}); err == nil {
		t.Fatal("dangling -listen accepted")
	}
	if err := run([]string{"-policies"}); err == nil {
		t.Fatal("dangling -policies accepted")
	}
	if err := run([]string{"-policies", "/does/not/exist.xml"}); err == nil {
		t.Fatal("missing policy file accepted")
	}
	// A mistyped -sync is rejected even without -data-dir, where the
	// mode would never reach the store.
	if err := run([]string{"-sync", "bogus"}); err == nil || !strings.Contains(err.Error(), "-sync") {
		t.Fatalf("-sync bogus: err = %v", err)
	}
}

func TestVEPHandlerPublishesWSDL(t *testing.T) {
	_, srv := boot(t, daemon.Config{})

	resp, err := srv.Client().Get(srv.URL + "/vep/Retailer?wsdl")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	contract, err := wsdl.ParseContractString(string(body))
	if err != nil {
		t.Fatalf("published WSDL does not parse: %v\n%s", err, body)
	}
	if contract.Name != "Retailer" || contract.Operation("getCatalog") == nil {
		t.Fatalf("contract = %+v", contract)
	}

	// Unknown VEP → 404.
	resp2, err := srv.Client().Get(srv.URL + "/vep/Ghost?wsdl")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 404 {
		t.Fatalf("ghost status = %d", resp2.StatusCode)
	}
}

func postCatalog(t *testing.T, srv *httptest.Server) *soap.Envelope {
	t.Helper()
	inv := &transport.HTTPInvoker{}
	req := soap.NewRequest(scm.NewGetCatalogRequest("tv", 0))
	soap.Addressing{To: "vep:Retailer", Action: "getCatalog"}.Apply(req)
	resp, err := inv.Invoke(context.Background(), srv.URL+"/vep/Retailer", req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestMetricsEndpointAfterTraffic(t *testing.T) {
	_, srv := boot(t, daemon.Config{})

	if resp := postCatalog(t, srv); resp.IsFault() {
		t.Fatalf("fault: %v", resp.Fault)
	}

	hr, err := srv.Client().Get(srv.URL + "/api/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	body, _ := io.ReadAll(hr.Body)
	if hr.StatusCode != 200 {
		t.Fatalf("status = %d", hr.StatusCode)
	}
	if ct := hr.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content-type = %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		`masc_vep_invocations_total{vep="Retailer",operation="getCatalog",outcome="ok"} 1`,
		`masc_bus_invocations_total{route="vep"} 1`,
		`masc_vep_invocation_seconds_count{vep="Retailer"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
}

func TestTracesEndpointShowsSpanTree(t *testing.T) {
	_, srv := boot(t, daemon.Config{})
	postCatalog(t, srv)

	hr, err := srv.Client().Get(srv.URL + "/api/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var summaries []telemetry.TraceSummary
	if err := json.NewDecoder(hr.Body).Decode(&summaries); err != nil {
		t.Fatal(err)
	}
	if len(summaries) != 1 {
		t.Fatalf("summaries = %+v", summaries)
	}

	hr2, err := srv.Client().Get(srv.URL + "/api/v1/traces/" + summaries[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	defer hr2.Body.Close()
	var view telemetry.TraceView
	if err := json.NewDecoder(hr2.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if view.Root.Name != "gateway vep:Retailer" {
		t.Fatalf("root = %q", view.Root.Name)
	}
	if len(view.Root.Children) != 1 || view.Root.Children[0].Name != "vep Retailer" {
		t.Fatalf("children = %+v", view.Root.Children)
	}
	vep := view.Root.Children[0]
	if len(vep.Children) == 0 || !strings.HasPrefix(vep.Children[0].Name, "attempt ") {
		t.Fatalf("attempt spans = %+v", vep.Children)
	}

	// Unknown trace → 404.
	hr3, err := srv.Client().Get(srv.URL + "/api/v1/traces/trace-999999")
	if err != nil {
		t.Fatal(err)
	}
	hr3.Body.Close()
	if hr3.StatusCode != 404 {
		t.Fatalf("unknown trace status = %d", hr3.StatusCode)
	}
}

func TestHealthzJSON(t *testing.T) {
	_, srv := boot(t, daemon.Config{})

	hr, err := srv.Client().Get(srv.URL + "/api/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != 200 {
		t.Fatalf("status = %d", hr.StatusCode)
	}
	var h struct {
		Status             string   `json:"status"`
		UptimeSeconds      float64  `json:"uptime_seconds"`
		VEPs               []string `json:"veps"`
		PolicyDocuments    []string `json:"policy_documents"`
		AdaptationPolicies int      `json:"adaptation_policies"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.UptimeSeconds < 0 {
		t.Fatalf("health = %+v", h)
	}
	if len(h.VEPs) != 1 || h.VEPs[0] != "Retailer" {
		t.Fatalf("veps = %v", h.VEPs)
	}
	if h.AdaptationPolicies != 1 || len(h.PolicyDocuments) != 1 {
		t.Fatalf("policies = %+v", h)
	}
}

func TestHealthzReportsVersionAndLatency(t *testing.T) {
	_, srv := boot(t, daemon.Config{})
	postCatalog(t, srv)

	hr, err := srv.Client().Get(srv.URL + "/api/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var h struct {
		Version    string `json:"version"`
		VEPLatency []struct {
			VEP   string  `json:"vep"`
			Count uint64  `json:"count"`
			P50MS float64 `json:"p50_ms"`
			P95MS float64 `json:"p95_ms"`
			P99MS float64 `json:"p99_ms"`
		} `json:"vep_latency"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Version != "dev" { // unstamped test build
		t.Fatalf("version = %q", h.Version)
	}
	if len(h.VEPLatency) != 1 || h.VEPLatency[0].VEP != "Retailer" || h.VEPLatency[0].Count != 1 {
		t.Fatalf("vep_latency = %+v", h.VEPLatency)
	}
	l := h.VEPLatency[0]
	if l.P50MS <= 0 || l.P50MS > l.P95MS || l.P95MS > l.P99MS {
		t.Fatalf("quantiles not ordered: %+v", l)
	}
}

func TestVersionFlag(t *testing.T) {
	if err := run([]string{"-version"}); err != nil {
		t.Fatalf("run -version: %v", err)
	}
}

func TestReadyzReflectsBackendQoS(t *testing.T) {
	_, srv := boot(t, daemon.Config{})

	// Before traffic: unmeasured backends are assumed healthy.
	hr, err := srv.Client().Get(srv.URL + "/api/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != 200 {
		t.Fatalf("pre-traffic status = %d", hr.StatusCode)
	}

	postCatalog(t, srv)
	hr2, err := srv.Client().Get(srv.URL + "/api/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr2.Body.Close()
	var r struct {
		Status string `json:"status"`
		VEPs   []struct {
			VEP      string `json:"vep"`
			Ready    bool   `json:"ready"`
			Backends []struct {
				Target      string `json:"target"`
				Measured    bool   `json:"measured"`
				Invocations int    `json:"invocations"`
			} `json:"backends"`
		} `json:"veps"`
	}
	if err := json.NewDecoder(hr2.Body).Decode(&r); err != nil {
		t.Fatal(err)
	}
	if r.Status != "ready" || len(r.VEPs) != 1 || !r.VEPs[0].Ready {
		t.Fatalf("readiness = %+v", r)
	}
	measured := 0
	for _, b := range r.VEPs[0].Backends {
		if b.Measured {
			measured += b.Invocations
		}
	}
	if measured != 1 {
		t.Fatalf("measured invocations = %d, want 1", measured)
	}
}

func TestPprofGatedByDebugFlag(t *testing.T) {
	_, plain := boot(t, daemon.Config{})
	hr, err := plain.Client().Get(plain.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != 404 {
		t.Fatalf("pprof without -debug: status = %d, want 404", hr.StatusCode)
	}

	_, dbg := boot(t, daemon.Config{Debug: true})
	hr2, err := dbg.Client().Get(dbg.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	hr2.Body.Close()
	if hr2.StatusCode != 200 {
		t.Fatalf("pprof with -debug: status = %d, want 200", hr2.StatusCode)
	}
}

// parkModule is a VEP pipeline module that holds every request until
// released.
type parkModule struct {
	entered chan struct{}
	release chan struct{}
}

func (*parkModule) ModuleName() string { return "park" }

func (m *parkModule) ProcessRequest(*bus.MessageContext) error {
	m.entered <- struct{}{}
	<-m.release
	return nil
}

func (*parkModule) ProcessResponse(*bus.MessageContext) error { return nil }

func TestDrainWaitsForInflight(t *testing.T) {
	d, srv := boot(t, daemon.Config{})
	park := &parkModule{entered: make(chan struct{}), release: make(chan struct{})}
	v, err := d.Gateway().VEP("Retailer")
	if err != nil {
		t.Fatal(err)
	}
	v.Pipeline().Append(park)

	served := make(chan error, 1)
	go func() {
		req := soap.NewRequest(scm.NewGetCatalogRequest("tv", 0))
		resp, err := (&transport.HTTPInvoker{}).Invoke(context.Background(), srv.URL+"/vep/Retailer", req)
		if err == nil && resp.IsFault() {
			err = resp.Fault
		}
		served <- err
	}()
	<-park.entered

	// While the request is parked, a short drain times out.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := d.Drain(ctx); err == nil {
		t.Fatal("drain succeeded with a request in flight")
	}

	close(park.release)
	if err := <-served; err != nil {
		t.Fatalf("parked request: %v", err)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := d.Drain(ctx2); err != nil {
		t.Fatalf("drain after release: %v", err)
	}
}
