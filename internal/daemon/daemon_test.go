package daemon

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/masc-project/masc/internal/cluster"
	"github.com/masc-project/masc/internal/telemetry"
	"github.com/masc-project/masc/internal/telemetry/decision"
	"github.com/masc-project/masc/internal/telemetry/slo"
)

const catalogSOAP = `<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"><e:Body><getCatalog xmlns="urn:wsi:scm"><category>tv</category></getCatalog></e:Body></e:Envelope>`

// node is one daemon under test behind a loopback server. The server
// exists before the daemon (a cluster node must advertise its URL at
// construction) and outlives it, so a test can Close the daemon and
// build another on the same data dir and address.
type node struct {
	srv *httptest.Server
	d   atomic.Pointer[Daemon]
}

func newNode(t *testing.T) *node {
	t.Helper()
	n := &node{}
	n.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d := n.d.Load()
		if d == nil {
			http.Error(w, "no daemon", http.StatusServiceUnavailable)
			return
		}
		d.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(n.srv.Close)
	return n
}

// boot builds and starts a daemon from cfg behind the node's server.
// A daemon the test did not Close itself is closed with the test.
func (n *node) boot(t *testing.T, cfg Config) *Daemon {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close() })
	d.Start()
	n.d.Store(d)
	return d
}

func (n *node) get(t *testing.T, path string, v any) {
	t.Helper()
	hr, err := http.Get(n.srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status = %d", path, hr.StatusCode)
	}
	if err := json.NewDecoder(hr.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
}

func (n *node) post(t *testing.T, path string) (int, string) {
	t.Helper()
	hr, err := http.Post(n.srv.URL+path, "text/xml", strings.NewReader(catalogSOAP))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	body, _ := io.ReadAll(hr.Body)
	return hr.StatusCode, string(body)
}

// hasTapNote reports whether any span of the view carries an
// annotation the event-bus tap wrote (they lead with the event type).
func hasTapNote(sv telemetry.SpanView) bool {
	for _, note := range sv.Notes {
		if strings.HasPrefix(note.Text, "process.") || strings.HasPrefix(note.Text, "activity.") {
			return true
		}
	}
	for _, child := range sv.Children {
		if hasTapNote(child) {
			return true
		}
	}
	return false
}

// TestNewWiresTheAssemblyThatShips boots New with the flag set the
// benchmark harness passes mascd — alone, then as one of a two-node
// cluster at replication level 1 — and asserts the parts no hand-built
// test daemon used to wire are live: the event-bus tap, the SLO
// observer, the flight recorder, the durable decision log. It then
// closes the daemon and builds another on the same data dir, which
// only works if teardown released the store.
func TestNewWiresTheAssemblyThatShips(t *testing.T) {
	stock := func(t *testing.T) Config {
		return Config{DataDir: t.TempDir(), Sync: "batched", PolicyDir: "../../policies"}
	}
	t.Run("single node", func(t *testing.T) {
		checkAssembly(t, newNode(t), stock(t))
	})
	t.Run("cluster node", func(t *testing.T) {
		a, b := newNode(t), newNode(t)
		seeds := []cluster.NodeInfo{{ID: "a", Addr: a.srv.URL}, {ID: "b", Addr: b.srv.URL}}
		clustered := func(id, url string) Config {
			cfg := stock(t)
			cfg.Cluster = ClusterConfig{NodeID: id, Advertise: url, Seeds: seeds,
				ReplicationLevel: 1, Heartbeat: 25 * time.Millisecond}
			return cfg
		}
		// b follows a's WAL; a's instances finish once b acknowledged them.
		b.boot(t, clustered("b", b.srv.URL))
		checkAssembly(t, a, clustered("a", a.srv.URL))

		var status struct {
			Self struct{ ID string }
			Ring struct{ Members []string }
		}
		a.get(t, "/api/v1/cluster", &status)
		if status.Self.ID != "a" || len(status.Ring.Members) != 2 {
			t.Fatalf("cluster status = %+v", status)
		}
	})
}

func checkAssembly(t *testing.T, n *node, cfg Config) {
	t.Helper()
	d := n.boot(t, cfg)

	// One hosted-process exchange: three invokes through the Retailer
	// VEP, a checkpoint per activity, engine events on the bus.
	if code, body := n.post(t, "/process/OrderingProcess"); code != http.StatusOK {
		t.Fatalf("process exchange: status = %d body = %s", code, body)
	}

	var traces []telemetry.TraceSummary
	n.get(t, "/api/v1/traces", &traces)
	tapped := false
	for _, sum := range traces {
		var view telemetry.TraceView
		n.get(t, "/api/v1/traces/"+sum.ID, &view)
		tapped = tapped || hasTapNote(view.Root)
	}
	if !tapped {
		t.Fatalf("no trace of %d carries an event-bus tap annotation", len(traces))
	}

	var report slo.Report
	n.get(t, "/api/v1/slo", &report)
	if len(report.Subjects) != 1 || report.Subjects[0].Subject != "vep:Retailer" {
		t.Fatalf("slo subjects = %+v", report.Subjects)
	}
	var flight struct {
		Bundles []json.RawMessage `json:"bundles"`
	}
	n.get(t, "/api/v1/flightrec", &flight)
	if flight.Bundles == nil {
		t.Fatal("flightrec listing has no bundles array")
	}
	var decisions decision.Page
	n.get(t, "/api/v1/decisions", &decisions)
	if decisions.Count == 0 {
		t.Fatal("no decision recorded for a monitored exchange")
	}

	// An instance created but never run is what a restart must bring back.
	parked, err := d.engine.CreateInstance("OrderingProcess", defaultProcessInputs())
	if err != nil {
		t.Fatal(err)
	}

	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	segments, err := filepath.Glob(filepath.Join(cfg.DataDir, "decisions", "*"))
	if err != nil || len(segments) == 0 {
		t.Fatalf("decision log segments = %v err = %v", segments, err)
	}
	if info, err := os.Stat(segments[0]); err != nil || info.Size() == 0 {
		t.Fatalf("decision log segment %s is empty (err = %v)", segments[0], err)
	}

	d2 := n.boot(t, cfg)
	if got := d2.recoveredCount(); got != 1 || !d2.isRecovered(parked.ID()) {
		t.Fatalf("recovered %d instances after restart, want the parked %s", got, parked.ID())
	}
	if err := d2.Close(); err != nil {
		t.Fatalf("Close after restart: %v", err)
	}
}

// TestNewFailsCleanly: every way New can be misconfigured is an error,
// and a daemon that got as far as opening its store releases it — the
// same directory boots the corrected configuration.
func TestNewFailsCleanly(t *testing.T) {
	dir := t.TempDir()
	write := func(name, text string) string {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	dataDir := filepath.Join(dir, "data")
	blocked := write("data/flightrec", "") // a file where a directory must go

	for name, cfg := range map[string]Config{
		"missing policy file":     {Policies: filepath.Join(dir, "absent.xml")},
		"unparseable policy file": {Policies: write("broken.xml", "<not xml")},
		"missing policy dir":      {PolicyDir: filepath.Join(dir, "absent")},
		"invalid policy bundle":   {PolicyDir: dir},
		"unknown sync mode":       {DataDir: dataDir, Sync: "sometimes"},
		"data dir is a file":      {DataDir: blocked, Sync: "batched"},
		"flightrec dir is a file": {DataDir: dataDir, Sync: "batched"},
		"decisions dir is a file": {DataDir: filepath.Dir(write("data2/decisions", "")), Sync: "batched"},
	} {
		if d, err := New(cfg); err == nil {
			d.Close()
			t.Errorf("%s: New succeeded", name)
		}
	}
	if err := os.Remove(blocked); err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{DataDir: dataDir, Sync: "batched"})
	if err != nil {
		t.Fatalf("corrected configuration: %v", err)
	}
	// Never started: Close must not wait for loops that never ran.
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSuspendOnlyPolicyAnswersFault: mascd wires no process adapter,
// so a policy whose only action is process-layer cannot handle a
// fault at the gateway. The caller gets the backend's SOAP fault —
// not an empty 202 — and the decision trail says the actions failed.
func TestSuspendOnlyPolicyAnswersFault(t *testing.T) {
	policies := filepath.Join(t.TempDir(), "suspend.xml")
	if err := os.WriteFile(policies, []byte(`
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="gateway-recovery">
  <AdaptationPolicy name="suspend-on-fault" subject="vep:Retailer" priority="10" kind="correction">
    <OnEvent type="fault.detected"/>
    <Actions><SuspendProcess/></Actions>
  </AdaptationPolicy>
</PolicyDocument>`), 0o644); err != nil {
		t.Fatal(err)
	}
	n := newNode(t)
	d := n.boot(t, Config{Policies: policies})
	v, err := d.gateway.VEP("Retailer")
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range v.Services() {
		v.DeregisterService(addr)
	}
	v.RegisterService("inproc://scm/dead")

	code, body := n.post(t, "/vep/Retailer")
	if code != http.StatusInternalServerError || !strings.Contains(body, "Fault") {
		t.Fatalf("status = %d body = %q, want a SOAP fault", code, body)
	}
	var page decision.Page
	n.get(t, "/api/v1/decisions?policy=suspend-on-fault", &page)
	if page.Count != 1 || page.Records[0].Verdict != decision.VerdictError ||
		page.Records[0].Outcome != "actions_failed" {
		t.Fatalf("decision records = %+v", page.Records)
	}
}

// TestCloseStopsAnUnstartedClusterNode: Close on a cluster daemon that
// was never started returns (the replica loop it would wait for never
// ran).
func TestCloseStopsAnUnstartedClusterNode(t *testing.T) {
	d, err := New(Config{DataDir: t.TempDir(), Sync: "off",
		Cluster: ClusterConfig{NodeID: "solo", Advertise: "http://127.0.0.1:0"}})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close hangs on a daemon that was never started")
	}
}

// TestExchangeAllocCeilings holds one /vep/Retailer exchange through
// the assembled daemon, under the benchmark's policy bundle, to a
// count of allocations: the 330 B getCatalog of vep_small and the
// 700-line one of vep_passthru. The codec used to cost 14 000 of them
// for the large body; a ceiling (a count, not a duration) makes its
// return a tier-1 failure.
func TestExchangeAllocCeilings(t *testing.T) {
	d, err := New(Config{PolicyDir: "../../benchmark/policies", DataDir: t.TempDir(), Sync: "batched"})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.Start()
	h := d.Handler()

	var notes strings.Builder
	for i := 0; i < 700; i++ {
		notes.WriteString("<line>fragile pallet 0042</line>")
	}
	body := func(extra string) string {
		return `<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/"><soapenv:Header><m:ConversationID xmlns:m="urn:masc:headers">conv-7-0000042</m:ConversationID></soapenv:Header><soapenv:Body><getCatalog xmlns="urn:wsi:scm"><category>tv</category>` +
			extra + `</getCatalog></soapenv:Body></soapenv:Envelope>`
	}
	for _, c := range []struct {
		name    string
		body    string
		ceiling float64
	}{
		{"330 B", body(""), 450},
		{"passthru", body("<notes>" + notes.String() + "</notes>"), 2000},
	} {
		exchange := func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/vep/Retailer", strings.NewReader(c.body)))
			if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "getCatalogResponse") {
				t.Fatalf("%s: status %d: %s", c.name, rec.Code, rec.Body.String())
			}
		}
		exchange() // first use of the VEP
		if n := testing.AllocsPerRun(50, exchange); n > c.ceiling {
			t.Errorf("%s exchange (%d bytes): %.0f allocations, ceiling %.0f", c.name, len(c.body), n, c.ceiling)
		} else {
			t.Logf("%s exchange (%d bytes): %.0f allocations", c.name, len(c.body), n)
		}
	}
}
