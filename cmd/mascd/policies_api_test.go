package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/masc-project/masc/internal/daemon"
	"github.com/masc-project/masc/internal/scm"
	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/transport"
)

// blockingPolicies replaces the default document with one that keeps
// the recovery rule but adds a pre-condition no getCatalog request
// satisfies — a behavior change observable at the gateway.
const blockingPolicies = `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="gateway-recovery">
  <MonitoringPolicy name="require-approval" subject="vep:Retailer" operation="getCatalog">
    <PreCondition name="approval-token">count(//ApprovalToken) &gt; 0</PreCondition>
  </MonitoringPolicy>
  <AdaptationPolicy name="retry-then-failover" subject="vep:Retailer" priority="10" kind="correction">
    <OnEvent type="fault.detected"/>
    <Actions>
      <Retry maxAttempts="3" delay="2s"/>
      <Substitute selection="bestResponseTime"/>
    </Actions>
  </AdaptationPolicy>
</PolicyDocument>`

// invalidPolicies parses but fails validation (a monitoring policy
// with nothing to monitor).
const invalidPolicies = `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="gateway-recovery">
  <MonitoringPolicy name="nothing" subject="vep:Retailer"/>
</PolicyDocument>`

// tryCatalog drives one getCatalog through the gateway and reports
// whether it succeeded (SOAP faults and violations count as failure).
func tryCatalog(t *testing.T, srv *httptest.Server) bool {
	t.Helper()
	inv := &transport.HTTPInvoker{}
	req := soap.NewRequest(scm.NewGetCatalogRequest("tv", 0))
	soap.Addressing{To: "vep:Retailer", Action: "getCatalog"}.Apply(req)
	resp, err := inv.Invoke(context.Background(), srv.URL+"/vep/Retailer", req)
	if err != nil {
		return false
	}
	return !resp.IsFault() && len(resp.Payload.ChildrenNamed("", "Product")) > 0
}

func getPolicies(t *testing.T, srv *httptest.Server) policiesPage {
	t.Helper()
	hr, err := srv.Client().Get(srv.URL + "/api/v1/policies")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("GET /policies status = %d", hr.StatusCode)
	}
	var page policiesPage
	decodeJSON(t, hr.Body, &page)
	return page
}

func putPolicy(t *testing.T, srv *httptest.Server, name, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut,
		srv.URL+"/api/v1/policies/"+name, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/xml")
	hr, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return hr
}

func TestAPIPoliciesListing(t *testing.T) {
	_, srv := boot(t, daemon.Config{})
	page := getPolicies(t, srv)
	if page.Mode != "compiled" {
		t.Fatalf("mode = %q", page.Mode)
	}
	if page.Revision == "" || page.CompiledAt == nil {
		t.Fatalf("bundle identity missing: %+v", page)
	}
	if len(page.Documents) != 1 {
		t.Fatalf("documents = %+v", page.Documents)
	}
	doc := page.Documents[0]
	if doc.Name != "gateway-recovery" || len(doc.SHA256) != 64 || doc.Adaptation != 1 {
		t.Fatalf("document = %+v", doc)
	}
}

func TestAPIPolicyGetContentNegotiation(t *testing.T) {
	_, srv := boot(t, daemon.Config{})

	// Default: JSON metadata.
	hr, err := srv.Client().Get(srv.URL + "/api/v1/policies/gateway-recovery")
	if err != nil {
		t.Fatal(err)
	}
	var info policyDocInfo
	decodeJSON(t, hr.Body, &info)
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK || info.Name != "gateway-recovery" || len(info.SHA256) != 64 {
		t.Fatalf("status = %d info = %+v", hr.StatusCode, info)
	}

	// Accept: application/xml serves the raw document.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/api/v1/policies/gateway-recovery", nil)
	req.Header.Set("Accept", "application/xml")
	hr, err = srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 1<<16)
	n, _ := hr.Body.Read(body)
	hr.Body.Close()
	if ct := hr.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/xml") {
		t.Fatalf("content-type = %q", ct)
	}
	if text := string(body[:n]); !strings.Contains(text, "PolicyDocument") || !strings.Contains(text, "gateway-recovery") {
		t.Fatalf("xml body = %q", text)
	}

	// Unknown document: 404 envelope.
	hr, err = srv.Client().Get(srv.URL + "/api/v1/policies/no-such-doc")
	if err != nil {
		t.Fatal(err)
	}
	var envl errorEnvelope
	decodeJSON(t, hr.Body, &envl)
	hr.Body.Close()
	if hr.StatusCode != http.StatusNotFound || envl.Error.Code != "not_found" {
		t.Fatalf("status = %d envelope = %+v", hr.StatusCode, envl)
	}
}

// TestAPIPolicyHotReload is the end-to-end hot-swap proof: a PUT that
// compiles replaces the live policy set, and the very next gateway
// evaluation uses it — no restart.
func TestAPIPolicyHotReload(t *testing.T) {
	_, srv := boot(t, daemon.Config{})

	if !tryCatalog(t, srv) {
		t.Fatal("baseline getCatalog failed under the default policies")
	}
	before := getPolicies(t, srv)
	defaultPolicies := builtinPolicies(t, srv)

	// Swap in the blocking document.
	hr := putPolicy(t, srv, "gateway-recovery", blockingPolicies)
	var put struct {
		Document policyDocInfo `json:"document"`
		Bundle   policiesPage  `json:"bundle"`
	}
	decodeJSON(t, hr.Body, &put)
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("PUT status = %d", hr.StatusCode)
	}
	if put.Bundle.Revision == before.Revision {
		t.Fatal("revision did not change after PUT")
	}
	if put.Document.Monitoring != 1 {
		t.Fatalf("document = %+v", put.Document)
	}

	// The next evaluation enforces the new pre-condition.
	if tryCatalog(t, srv) {
		t.Fatal("getCatalog still succeeds; new policy not live")
	}

	// Swap the original back; traffic recovers, again without restart.
	hr = putPolicy(t, srv, "gateway-recovery", defaultPolicies)
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("restore PUT status = %d", hr.StatusCode)
	}
	if !tryCatalog(t, srv) {
		t.Fatal("getCatalog still blocked after restoring the default policies")
	}
}

// TestAPIPolicyPutInvalid proves the reject path: 422 with structured
// diagnostics, and the previously published set keeps serving.
func TestAPIPolicyPutInvalid(t *testing.T) {
	_, srv := boot(t, daemon.Config{})
	before := getPolicies(t, srv)

	hr := putPolicy(t, srv, "gateway-recovery", invalidPolicies)
	var envl errorEnvelope
	decodeJSON(t, hr.Body, &envl)
	hr.Body.Close()
	if hr.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d", hr.StatusCode)
	}
	if envl.Error.Code != "unprocessable" || len(envl.Error.Diagnostics) == 0 {
		t.Fatalf("envelope = %+v", envl)
	}

	// Unparseable XML also lands on 422 with a diagnostic.
	hr = putPolicy(t, srv, "gateway-recovery", "<not xml")
	decodeJSON(t, hr.Body, &envl)
	hr.Body.Close()
	if hr.StatusCode != http.StatusUnprocessableEntity || len(envl.Error.Diagnostics) == 0 {
		t.Fatalf("status = %d envelope = %+v", hr.StatusCode, envl)
	}

	// A condition on a variable no site binds could never apply: 422,
	// with an error diagnostic naming the variable.
	hr = putPolicy(t, srv, "gateway-recovery", strings.Replace(blockingPolicies,
		`<OnEvent type="fault.detected"/>`,
		`<OnEvent type="fault.detected"/><Condition>$nosuch = 'x'</Condition>`, 1))
	envl = errorEnvelope{}
	decodeJSON(t, hr.Body, &envl)
	hr.Body.Close()
	if hr.StatusCode != http.StatusUnprocessableEntity || len(envl.Error.Diagnostics) != 1 ||
		envl.Error.Diagnostics[0].Severity != "error" ||
		!strings.Contains(envl.Error.Diagnostics[0].Message, "references $nosuch") {
		t.Fatalf("unbound variable: status = %d envelope = %+v", hr.StatusCode, envl)
	}

	// A body whose document name disagrees with the path is a client
	// error, not a validation failure.
	hr = putPolicy(t, srv, "some-other-name", builtinPolicies(t, srv))
	decodeJSON(t, hr.Body, &envl)
	hr.Body.Close()
	if hr.StatusCode != http.StatusBadRequest || envl.Error.Code != "bad_request" {
		t.Fatalf("status = %d envelope = %+v", hr.StatusCode, envl)
	}

	// The old set is untouched and still serving.
	after := getPolicies(t, srv)
	if after.Revision != before.Revision {
		t.Fatalf("revision changed across rejected PUTs: %s -> %s", before.Revision, after.Revision)
	}
	if !tryCatalog(t, srv) {
		t.Fatal("gateway traffic broken after rejected PUTs")
	}
}

func TestAPIPolicyDelete(t *testing.T) {
	_, srv := boot(t, daemon.Config{})

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/api/v1/policies/gateway-recovery", nil)
	hr, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var page policiesPage
	decodeJSON(t, hr.Body, &page)
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK || len(page.Documents) != 0 {
		t.Fatalf("status = %d page = %+v", hr.StatusCode, page)
	}

	// Deleting again: 404.
	hr, err = srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var envl errorEnvelope
	decodeJSON(t, hr.Body, &envl)
	hr.Body.Close()
	if hr.StatusCode != http.StatusNotFound || envl.Error.Code != "not_found" {
		t.Fatalf("status = %d envelope = %+v", hr.StatusCode, envl)
	}
}

func TestAPIPolicyReload(t *testing.T) {
	_, srv := boot(t, daemon.Config{})
	defaultPolicies := builtinPolicies(t, srv)

	// Without -policy-dir there is nothing to reload.
	hr, err := srv.Client().Post(srv.URL+"/api/v1/policies/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var envl errorEnvelope
	decodeJSON(t, hr.Body, &envl)
	hr.Body.Close()
	if hr.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d envelope = %+v", hr.StatusCode, envl)
	}

	// A daemon booted on a bundle directory picks up a second document
	// dropped there afterwards.
	dir := t.TempDir()
	second := strings.Replace(blockingPolicies, `name="gateway-recovery"`, `name="extra-guards"`, 1)
	if err := os.WriteFile(filepath.Join(dir, "a-recovery.xml"), []byte(defaultPolicies), 0o644); err != nil {
		t.Fatal(err)
	}
	_, srv = boot(t, daemon.Config{PolicyDir: dir})
	if page := getPolicies(t, srv); len(page.Documents) != 1 {
		t.Fatalf("documents at boot = %+v", page.Documents)
	}
	if err := os.WriteFile(filepath.Join(dir, "b-guards.xml"), []byte(second), 0o644); err != nil {
		t.Fatal(err)
	}

	hr, err = srv.Client().Post(srv.URL+"/api/v1/policies/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var page policiesPage
	decodeJSON(t, hr.Body, &page)
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK || len(page.Documents) != 2 {
		t.Fatalf("status = %d page = %+v", hr.StatusCode, page)
	}
	goodRevision := page.Revision

	// A broken file rejects the whole reload; the published two-document
	// set keeps serving.
	if err := os.WriteFile(filepath.Join(dir, "c-broken.xml"), []byte(invalidPolicies), 0o644); err != nil {
		t.Fatal(err)
	}
	hr, err = srv.Client().Post(srv.URL+"/api/v1/policies/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	decodeJSON(t, hr.Body, &envl)
	hr.Body.Close()
	if hr.StatusCode != http.StatusUnprocessableEntity || len(envl.Error.Diagnostics) == 0 {
		t.Fatalf("status = %d envelope = %+v", hr.StatusCode, envl)
	}
	after := getPolicies(t, srv)
	if after.Revision != goodRevision || len(after.Documents) != 2 {
		t.Fatalf("published set changed across rejected reload: %+v", after)
	}
}
