package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/masc-project/masc/internal/bus"
	"github.com/masc-project/masc/internal/daemon"
	"github.com/masc-project/masc/internal/policy"
	"github.com/masc-project/masc/internal/scm"
	"github.com/masc-project/masc/internal/xmltree"
)

// boot assembles and starts a daemon from cfg — the constructor run()
// calls — and serves its handler from a loopback server. Both are torn
// down with the test; a teardown error fails it.
func boot(t *testing.T, cfg daemon.Config) (*daemon.Daemon, *httptest.Server) {
	t.Helper()
	d, err := daemon.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(func() {
		srv.Close()
		if err := d.Close(); err != nil {
			t.Errorf("daemon close: %v", err)
		}
	})
	return d, srv
}

// policyFile writes one policy document where -policies can read it.
func policyFile(t *testing.T, policyXML string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "policies.xml")
	if err := os.WriteFile(path, []byte(policyXML), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// e2ePolicies is the Table 1 recovery policy with test-speed delays:
// retry the faulty service once, then substitute another retailer.
const e2ePolicies = `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="gateway-recovery">
  <AdaptationPolicy name="retry-then-failover" subject="vep:Retailer" priority="10" kind="correction">
    <OnEvent type="fault.detected"/>
    <Actions>
      <Retry maxAttempts="1" delay="1ms"/>
      <Substitute selection="first"/>
    </Actions>
  </AdaptationPolicy>
</PolicyDocument>`

// bootDeadFirst boots cfg under e2ePolicies and reconfigures the
// Retailer VEP at runtime to list a dead backend first, so every
// request exercises retry + failover before succeeding on a live
// retailer.
func bootDeadFirst(t *testing.T, cfg daemon.Config) (*daemon.Daemon, *httptest.Server) {
	t.Helper()
	cfg.Policies = policyFile(t, e2ePolicies)
	d, srv := boot(t, cfg)
	v := retailerServices(t, d, func(live []string) []string {
		return append([]string{"inproc://scm/dead"}, live...)
	})
	v.SetSelection(policy.SelectFirst, 0)
	return d, srv
}

// retailerServices replaces the Retailer VEP's backends, at runtime,
// with what replace makes of the live ones.
func retailerServices(t *testing.T, d *daemon.Daemon, replace func(live []string) []string) *bus.VEP {
	t.Helper()
	v, err := d.Gateway().VEP("Retailer")
	if err != nil {
		t.Fatal(err)
	}
	live := v.Services()
	for _, addr := range live {
		v.DeregisterService(addr)
	}
	for _, addr := range replace(live) {
		v.RegisterService(addr)
	}
	return v
}

// orderingInputs are the inputs /process/OrderingProcess defaults to.
func orderingInputs() map[string]*xmltree.Element {
	return map[string]*xmltree.Element{
		"catalogReq": scm.NewGetCatalogRequest("tv", 0),
		"orderReq": scm.NewSubmitOrderRequest("cust-api", []scm.OrderItem{
			{SKU: "605002", Qty: 1},
		}, 0),
	}
}

// builtinPolicies fetches the document mascd loads when neither
// -policies nor -policy-dir is given, from a daemon booted that way.
func builtinPolicies(t *testing.T, srv *httptest.Server) string {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/api/v1/policies/gateway-recovery", nil)
	req.Header.Set("Accept", "application/xml")
	hr, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	raw, _ := io.ReadAll(hr.Body)
	if hr.StatusCode != 200 {
		t.Fatalf("GET built-in document: status = %d body = %s", hr.StatusCode, raw)
	}
	return string(raw)
}

func decodeJSON(t *testing.T, r io.Reader, v any) {
	t.Helper()
	if err := json.NewDecoder(r).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// The management API's JSON documents, as far as the tests read them.

type errorEnvelope struct {
	Error struct {
		Code        string `json:"code"`
		Message     string `json:"message"`
		Diagnostics []struct {
			Code     string `json:"code"`
			Severity string `json:"severity"`
			Message  string `json:"message"`
		} `json:"diagnostics"`
	} `json:"error"`
}

type policyDocInfo struct {
	Name       string `json:"name"`
	SHA256     string `json:"sha256"`
	Monitoring int    `json:"monitoring"`
	Adaptation int    `json:"adaptation"`
}

type policiesPage struct {
	Mode       string          `json:"mode"`
	Revision   string          `json:"revision"`
	CompiledAt *time.Time      `json:"compiled_at"`
	Documents  []policyDocInfo `json:"documents"`
}

type instanceSummary struct {
	ID         string `json:"id"`
	Definition string `json:"definition"`
	State      string `json:"state"`
	Recovered  bool   `json:"recovered"`
}

// healthDoc is the store and cluster sections of /api/v1/healthz.
type healthDoc struct {
	Store *struct {
		RecoveredInstances int `json:"recovered_instances"`
	} `json:"store"`
	Cluster *struct {
		Node         string `json:"node"`
		MembersAlive int    `json:"members_alive"`
	} `json:"cluster"`
}

func getHealth(t *testing.T, srv *httptest.Server) healthDoc {
	t.Helper()
	hr, err := srv.Client().Get(srv.URL + "/api/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != 200 {
		t.Fatalf("GET /api/v1/healthz status = %d", hr.StatusCode)
	}
	var h healthDoc
	decodeJSON(t, hr.Body, &h)
	return h
}
