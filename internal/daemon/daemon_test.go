package daemon

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/masc-project/masc/internal/cluster"
	"github.com/masc-project/masc/internal/store"
	"github.com/masc-project/masc/internal/telemetry"
	"github.com/masc-project/masc/internal/telemetry/decision"
	"github.com/masc-project/masc/internal/telemetry/slo"
	"github.com/masc-project/masc/internal/workflow"
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

// auditOrdersPolicy customizes every OrderingProcess instance when the
// engine creates it (static customization, §2.1): it appends an
// AuditOrder activity and moves the instance to the "audited" state.
const auditOrdersPolicy = `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="ordering-audit">
  <AdaptationPolicy name="audit-orders" subject="OrderingProcess" priority="5" kind="customization" layer="process">
    <OnEvent type="process.started"/>
    <StateAfter>audited</StateAfter>
    <Actions>
      <AddActivity position="atEnd">
        <Activity><noop name="AuditOrder"/></Activity>
      </AddActivity>
    </Actions>
  </AdaptationPolicy>
</PolicyDocument>`

// writePolicies writes a policy document to a fresh file for -policies.
func writePolicies(t *testing.T, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "policies.xml")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// onlyInstance returns the ID of the node's one process instance.
func (n *node) onlyInstance(t *testing.T) string {
	t.Helper()
	var list struct{ Instances []instanceSummary }
	n.get(t, "/api/v1/instances", &list)
	if len(list.Instances) != 1 {
		t.Fatalf("instances = %+v, want exactly one", list.Instances)
	}
	return list.Instances[0].ID
}

// metricSum adds up the samples of a metric family on /api/v1/metrics
// whose label set contains label.
func (n *node) metricSum(t *testing.T, family, label string) float64 {
	t.Helper()
	hr, err := http.Get(n.srv.URL + "/api/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	text, err := io.ReadAll(hr.Body)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, line := range strings.Split(string(text), "\n") {
		if !strings.HasPrefix(line, family+"{") || !strings.Contains(line, label) {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("metric line %q: %v", line, err)
		}
		sum += v
	}
	return sum
}

// TestNewWiresTheAssemblyThatShips boots New with the flag set the
// benchmark harness passes mascd — alone, then as one of a two-node
// cluster at replication level 1 — and asserts the parts no hand-built
// test daemon used to wire are live: the event-bus tap, the SLO
// observer, the flight recorder, the durable decision log. It then
// closes the daemon and builds another on the same data dir, which
// only works if teardown released the store, and checks that the
// recovered instance kept the tree static customization gave it.
func TestNewWiresTheAssemblyThatShips(t *testing.T) {
	stock := func(t *testing.T) Config {
		// The shipped bundle plus a process-layer customization.
		dir := t.TempDir()
		shipped, err := filepath.Glob("../../policies/*.xml")
		if err != nil || len(shipped) == 0 {
			t.Fatalf("shipped policies = %v err = %v", shipped, err)
		}
		files := map[string]string{"ordering-audit.xml": auditOrdersPolicy}
		for _, path := range shipped {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			files[filepath.Base(path)] = string(raw)
		}
		for name, text := range files {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return Config{DataDir: t.TempDir(), Sync: "batched", PolicyDir: dir}
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
	parked, err := d.stack.Engine.CreateInstance("OrderingProcess", defaultProcessInputs())
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
	recovered, err := d2.stack.Engine.Instance(parked.ID())
	if err != nil {
		t.Fatal(err)
	}
	if state := recovered.AdaptationState(); state != "audited" ||
		workflow.FindActivity(recovered.TreeCopy(), "AuditOrder") == nil {
		t.Fatalf("recovered instance: adaptation state %q, AuditOrder present = %v; want the customized tree",
			state, workflow.FindActivity(recovered.TreeCopy(), "AuditOrder") != nil)
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

// TestSuspendOnlyPolicyAnswersFault: a policy whose only action is
// process-layer cannot handle a fault on a request that correlates to
// no process instance — there is nothing to suspend. The caller gets
// the backend's SOAP fault — not an empty 202 — and the decision trail
// says the actions failed.
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
	v, err := d.stack.Bus.VEP("Retailer")
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

// TestProcessPolicyCustomizesOrderingProcess: a process-layer policy
// loaded with -policies customizes the hosted OrderingProcess as the
// engine creates it, and mascd counts the customization.
func TestProcessPolicyCustomizesOrderingProcess(t *testing.T) {
	n := newNode(t)
	n.boot(t, Config{Policies: writePolicies(t, auditOrdersPolicy)})
	if code, body := n.post(t, "/process/OrderingProcess"); code != http.StatusOK {
		t.Fatalf("process exchange: status = %d body = %s", code, body)
	}
	var inst instanceSummary
	n.get(t, "/api/v1/instances/"+n.onlyInstance(t), &inst)
	if inst.AdaptationState != "audited" || inst.State != "completed" {
		t.Fatalf("instance = %+v, want completed in adaptation state audited", inst)
	}
	if got := n.metricSum(t, "masc_customizations_total", `mode="static"`); got != 1 {
		t.Fatalf(`masc_customizations_total{mode="static"} = %v, want 1`, got)
	}
}

// TestProcessPolicyDecisionIsRecorded: a process-layer policy on
// message.intercepted is matched by the decision maker when the
// OrderingProcess's request passes the Retailer VEP, the decision
// trail holds that match correlated to the instance, and mascd counts
// the dynamic customization.
func TestProcessPolicyDecisionIsRecorded(t *testing.T) {
	n := newNode(t)
	n.boot(t, Config{Policies: writePolicies(t, `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="ordering-observe">
  <AdaptationPolicy name="observe-orders" subject="OrderingProcess" priority="5" kind="customization" layer="process">
    <OnEvent type="message.intercepted"/>
    <StateBefore></StateBefore>
    <StateAfter>observed</StateAfter>
    <Actions>
      <AddActivity position="atEnd">
        <Activity><noop name="Observed"/></Activity>
      </AddActivity>
    </Actions>
  </AdaptationPolicy>
</PolicyDocument>`)})
	if code, body := n.post(t, "/process/OrderingProcess"); code != http.StatusOK {
		t.Fatalf("process exchange: status = %d body = %s", code, body)
	}
	id := n.onlyInstance(t)
	var page decision.Page
	n.get(t, "/api/v1/decisions?policy=observe-orders&site=decision&verdict=matched", &page)
	if page.Count != 1 || page.Records[0].Instance != id || page.Records[0].Conversation != id {
		t.Fatalf("matched decision records = %+v, want one for instance %s", page.Records, id)
	}
	var inst instanceSummary
	n.get(t, "/api/v1/instances/"+id, &inst)
	if inst.AdaptationState != "observed" {
		t.Fatalf("instance = %+v, want adaptation state observed", inst)
	}
	if got := n.metricSum(t, "masc_customizations_total", `mode="dynamic"`); got != 1 {
		t.Fatalf(`masc_customizations_total{mode="dynamic"} = %v, want 1`, got)
	}
}

// TestCloseAbandonsDelayedResume: Close does not sit out a pending
// DelayProcess. The delayed instance stays suspended in its checkpoint,
// and the next boot on the same data dir recovers it.
func TestCloseAbandonsDelayedResume(t *testing.T) {
	n := newNode(t)
	cfg := Config{DataDir: t.TempDir(), Sync: "batched", Policies: writePolicies(t, `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="ordering-delay">
  <AdaptationPolicy name="delay-orders" subject="OrderingProcess" priority="5" kind="customization" layer="process">
    <OnEvent type="message.intercepted"/>
    <StateBefore></StateBefore>
    <StateAfter>delayed</StateAfter>
    <Actions><DelayProcess duration="10m"/></Actions>
  </AdaptationPolicy>
</PolicyDocument>`)}
	d := n.boot(t, cfg)
	hr, err := http.Post(n.srv.URL+"/api/v1/instances", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	var started instanceSummary
	err = json.NewDecoder(hr.Body).Decode(&started)
	hr.Body.Close()
	if err != nil || hr.StatusCode != http.StatusAccepted {
		t.Fatalf("start instance: status = %d err = %v", hr.StatusCode, err)
	}
	inst, err := d.stack.Engine.Instance(started.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !inst.AwaitState(workflow.StateSuspended, 10*time.Second) {
		t.Fatalf("instance %s is %s, want suspended by DelayProcess", started.ID, inst.State())
	}

	done := make(chan error, 1)
	go func() { done <- d.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close waits out a pending DelayProcess")
	}
	if d2 := n.boot(t, cfg); !d2.isRecovered(started.ID) {
		t.Fatalf("delayed instance %s not recovered after restart", started.ID)
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

// TestOrderExchangeBytes holds one /vep/Retailer exchange of a
// submitOrder of vep_large's shape (one item, 700 notes lines, 23 KB),
// which the benchmark's order-body policy walks, to a bound on the
// bytes it allocates, read from TotalAlloc. With the assertions on a
// deep copy of the message, the MonitoringStore cloning it twice and
// every // step listing all 1 400 elements it read ~776 KB; reading
// the message in place and streaming the steps leaves ~313 KB.
func TestOrderExchangeBytes(t *testing.T) {
	d, err := New(Config{PolicyDir: "../../benchmark/policies", DataDir: t.TempDir(), Sync: "batched"})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.Start()
	h := d.Handler()

	var b strings.Builder
	b.WriteString(`<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/"><soapenv:Header><m:ConversationID xmlns:m="urn:masc:headers">conv-7-0000042</m:ConversationID></soapenv:Header><soapenv:Body>`)
	b.WriteString(`<submitOrder xmlns="urn:wsi:scm"><customerID>cust-7-00042</customerID><items><item><sku>605001</sku><qty>1</qty></item></items><notes>`)
	for i := 0; i < 700; i++ {
		fmt.Fprintf(&b, "<line>fragile pallet %04d</line>", i)
	}
	b.WriteString(`</notes></submitOrder></soapenv:Body></soapenv:Envelope>`)
	body := b.String()

	exchange := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/vep/Retailer", strings.NewReader(body)))
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "submitOrderResponse") {
			t.Fatalf("order exchange: status %d: %s", rec.Code, rec.Body.String())
		}
	}
	exchange() // first use of the VEP
	const ops, ceiling = 50, 400 << 10
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	start := ms.TotalAlloc
	for i := 0; i < ops; i++ {
		exchange()
	}
	runtime.ReadMemStats(&ms)
	perOp := float64(ms.TotalAlloc-start) / ops
	if perOp > ceiling {
		t.Errorf("%d B submitOrder exchange: %.0f B allocated, ceiling %d B", len(body), perOp, ceiling)
	} else {
		t.Logf("%d B submitOrder exchange: %.0f B allocated", len(body), perOp)
	}
}

// TestProcessCostIndependentOfUptime serves 500 hosted OrderingProcess
// requests through a durable daemon under the benchmark's policy
// bundle and asserts, as counts, that a request costs the same late as
// early: the bytes allocated per request over the last 50 are within
// 10 % of the first 50, every instance's checkpoint record is the same
// size, and each instance tracked exactly its own two events. When
// getEvents answered with the whole log, every instance checkpointed
// the history of all the orders before it and all three grew with
// uptime.
func TestProcessCostIndependentOfUptime(t *testing.T) {
	cfg := Config{PolicyDir: "../../benchmark/policies", DataDir: t.TempDir(), Sync: "batched"}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.Start()
	h := d.Handler()

	const ops, window = 500, 50
	exchange := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/process/OrderingProcess", strings.NewReader(catalogSOAP)))
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "submitOrderResponse") {
			t.Fatalf("process exchange: status %d: %s", rec.Code, rec.Body.String())
		}
	}
	var ms runtime.MemStats
	perOp := func(n int) float64 {
		runtime.ReadMemStats(&ms)
		start := ms.TotalAlloc
		for i := 0; i < n; i++ {
			exchange()
		}
		runtime.ReadMemStats(&ms)
		return float64(ms.TotalAlloc-start) / float64(n)
	}
	early := perOp(window)
	perOp(ops - 2*window)
	late := perOp(window)
	t.Logf("bytes allocated per request: ops 1–%d %.0f B, ops %d–%d %.0f B (%.2f×)",
		window, early, ops-window+1, ops, late, late/early)
	if late > 1.10*early {
		t.Errorf("ops %d–%d allocate %.0f B per request, %.2f× the %.0f B of ops 1–%d; want ≤ 1.10×",
			ops-window+1, ops, late, late/early, early, window)
	}

	ids := d.stack.Engine.Instances()
	if len(ids) != ops {
		t.Fatalf("engine holds %d instances, want %d", len(ids), ops)
	}
	for _, id := range ids {
		inst, err := d.stack.Engine.Instance(id)
		if err != nil {
			t.Fatal(err)
		}
		events, ok := inst.GetVar("events")
		if !ok {
			t.Fatalf("instance %s has no events", id)
		}
		if n := len(events.ChildrenNamed("", "event")); n != 2 {
			t.Fatalf("instance %s tracked %d events, want its own 2", id, n)
		}
	}

	// Close drains the checkpoint queue; the reopened store holds each
	// instance's final delta chain.
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(cfg.DataDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	records := st.List(workflow.SpaceInstances)
	if len(records) != ops {
		t.Fatalf("store holds %d instance records, want %d", len(records), ops)
	}
	lo, hi := -1, 0
	for _, v := range records {
		if lo < 0 || len(v) < lo {
			lo = len(v)
		}
		hi = max(hi, len(v))
	}
	t.Logf("instance records: %d–%d B", lo, hi)
	if hi-lo > 16 {
		t.Errorf("instance records span %d–%d B; want every one within 16 B of every other", lo, hi)
	}
}
