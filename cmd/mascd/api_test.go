package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/masc-project/masc/internal/daemon"
	"github.com/masc-project/masc/internal/policy"
)

// vepSummary is one VEP in /api/v1/veps as the tests read it.
type vepSummary struct {
	Name       string   `json:"name"`
	Address    string   `json:"address"`
	Services   []string `json:"services"`
	Protection *struct {
		Policy    string `json:"policy"`
		Admission bool   `json:"admission"`
		Breaker   bool   `json:"breaker"`
		Hedge     bool   `json:"hedge"`
	} `json:"protection"`
}

func TestAPIVepsListing(t *testing.T) {
	d, srv := boot(t, daemon.Config{})
	v, err := d.Gateway().VEP("Retailer")
	if err != nil {
		t.Fatal(err)
	}
	v.ApplyProtection(&policy.ProtectionPolicy{
		Name:      "guard",
		Admission: &policy.AdmissionSpec{MaxInFlight: 8, MaxQueue: 16},
		Breaker:   &policy.BreakerSpec{FailureThreshold: 3, Cooldown: 10 * time.Second},
		Hedge:     &policy.HedgeSpec{AfterFactor: 1, MinSamples: 10, MaxHedges: 1},
	})

	hr, err := srv.Client().Get(srv.URL + "/api/v1/veps")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", hr.StatusCode)
	}
	var page struct {
		VEPs []vepSummary `json:"veps"`
	}
	decodeJSON(t, hr.Body, &page)
	if len(page.VEPs) != 1 {
		t.Fatalf("veps = %+v", page.VEPs)
	}
	got := page.VEPs[0]
	if got.Name != "Retailer" || got.Address != "vep:Retailer" || len(got.Services) != 2 {
		t.Fatalf("summary = %+v", got)
	}
	p := got.Protection
	if p == nil || p.Policy != "guard" || !p.Admission || !p.Breaker || !p.Hedge {
		t.Fatalf("protection = %+v", p)
	}
}

func TestAPIServiceManagement(t *testing.T) {
	_, srv := boot(t, daemon.Config{})
	client := srv.Client()
	base := srv.URL + "/api/v1/veps/Retailer/services"

	// Register a third equivalent service at runtime.
	hr, err := client.Post(base, "application/json",
		strings.NewReader(`{"address": "inproc://scm/retailer-x"}`))
	if err != nil {
		t.Fatal(err)
	}
	var reg struct {
		VEP      string   `json:"vep"`
		Services []string `json:"services"`
	}
	decodeJSON(t, hr.Body, &reg)
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK || len(reg.Services) != 3 {
		t.Fatalf("status = %d services = %v", hr.StatusCode, reg.Services)
	}

	// Deregister it again.
	req, _ := http.NewRequest(http.MethodDelete, base+"?address=inproc%3A%2F%2Fscm%2Fretailer-x", nil)
	hr, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	decodeJSON(t, hr.Body, &reg)
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK || len(reg.Services) != 2 {
		t.Fatalf("status = %d services = %v", hr.StatusCode, reg.Services)
	}

	// A second delete reports not_found in the error envelope.
	hr, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var envl errorEnvelope
	decodeJSON(t, hr.Body, &envl)
	hr.Body.Close()
	if hr.StatusCode != http.StatusNotFound || envl.Error.Code != "not_found" {
		t.Fatalf("status = %d envelope = %+v", hr.StatusCode, envl)
	}

	// Bad request body.
	hr, err = client.Post(base, "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	decodeJSON(t, hr.Body, &envl)
	hr.Body.Close()
	if hr.StatusCode != http.StatusBadRequest || envl.Error.Code != "bad_request" {
		t.Fatalf("status = %d envelope = %+v", hr.StatusCode, envl)
	}

	// Unknown VEP.
	hr, err = client.Get(srv.URL + "/api/v1/veps/Nope/services")
	if err != nil {
		t.Fatal(err)
	}
	decodeJSON(t, hr.Body, &envl)
	hr.Body.Close()
	if hr.StatusCode != http.StatusNotFound || envl.Error.Code != "not_found" {
		t.Fatalf("status = %d envelope = %+v", hr.StatusCode, envl)
	}
}

// TestAPIErrorEnvelopeOnEveryHandler: every 4xx under /api/v1 is the
// envelope, whichever package owns the handler — the telemetry and
// decision handlers write it themselves, nothing rewraps a body.
func TestAPIErrorEnvelopeOnEveryHandler(t *testing.T) {
	_, srv := boot(t, daemon.Config{})

	for _, tc := range []struct {
		method, path  string
		status        int
		code, message string
	}{
		{"GET", "/traces/no-such-trace", 404, "not_found", "unknown trace"},
		{"GET", "/logs?level=loud", 400, "bad_request", "unknown level"},
		{"GET", "/logs?since=yesterday", 400, "bad_request", "since must be RFC 3339"},
		{"GET", "/messages?limit=-1", 400, "bad_request", "limit must be a non-negative integer"},
		{"POST", "/decisions", 405, "method_not_allowed", "method not allowed"},
		{"GET", "/decisions?limit=0", 400, "bad_request", "bad limit"},
		{"GET", "/decisions?since=yesterday", 400, "bad_request", ""},
		{"DELETE", "/veps", 405, "method_not_allowed", "use GET"},
	} {
		req, _ := http.NewRequest(tc.method, srv.URL+"/api/v1"+tc.path, nil)
		hr, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var envl errorEnvelope
		decodeJSON(t, hr.Body, &envl)
		hr.Body.Close()
		if hr.StatusCode != tc.status || envl.Error.Code != tc.code {
			t.Errorf("%s %s: status = %d envelope = %+v", tc.method, tc.path, hr.StatusCode, envl)
		}
		if tc.message != "" && envl.Error.Message != tc.message {
			t.Errorf("%s %s: message = %q, want %q", tc.method, tc.path, envl.Error.Message, tc.message)
		}
		if ct := hr.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Errorf("%s %s: content-type = %q", tc.method, tc.path, ct)
		}
	}
}

// TestAPIObservabilityAliases: the management surface is /api/v1 and
// nothing else — the unversioned aliases are gone.
func TestAPIObservabilityAliases(t *testing.T) {
	d, srv := boot(t, daemon.Config{Debug: true})
	postCatalog(t, srv)

	for _, tc := range []struct {
		path     string
		status   int
		contains string
	}{
		{"/metrics", http.StatusNotFound, ""},
		{"/healthz", http.StatusNotFound, ""},
		{"/api/v1/metrics", http.StatusOK, "masc_vep_invocations_total"},
		{"/api/v1/healthz", http.StatusOK, "protection_policies"},
	} {
		hr, err := srv.Client().Get(srv.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(hr.Body)
		hr.Body.Close()
		if hr.StatusCode != tc.status || !strings.Contains(string(body), tc.contains) {
			t.Fatalf("%s: status = %d (want %d), body lacks %q", tc.path, hr.StatusCode, tc.status, tc.contains)
		}
	}

	// Outside the gateway prefixes, /api/v1/ and /debug/pprof/ the mux
	// matches nothing: not the seven former aliases, not a catch-all.
	mux := d.Handler().(*http.ServeMux)
	for _, path := range []string{"/", "/metrics", "/traces", "/traces/trace-1", "/logs",
		"/messages", "/healthz", "/readyz", "/api", "/api/v2/metrics", "/debug/vars"} {
		if _, pat := mux.Handler(httptest.NewRequest("GET", path, nil)); pat != "" {
			t.Errorf("%s is served by pattern %q", path, pat)
		}
	}
	for path, prefix := range map[string]string{
		"/vep/Retailer":            "/vep/",
		"/process/OrderingProcess": "/process/",
		"/svc/scm/retailer-a":      "/svc/",
		"/api/v1/traces/trace-1":   "/api/v1/",
		"/debug/pprof/heap":        "/debug/pprof/",
	} {
		if _, pat := mux.Handler(httptest.NewRequest("GET", path, nil)); !strings.HasPrefix(pat, prefix) {
			t.Errorf("%s is served by pattern %q, want one under %s", path, pat, prefix)
		}
	}
}
