package monitor

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/masc-project/masc/internal/clock"
	"github.com/masc-project/masc/internal/event"
	"github.com/masc-project/masc/internal/policy"
	"github.com/masc-project/masc/internal/qos"
	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/transport"
	"github.com/masc-project/masc/internal/wsdl"
	"github.com/masc-project/masc/internal/xmltree"
	"github.com/masc-project/masc/internal/xpath"
)

func TestClassifyError(t *testing.T) {
	tests := []struct {
		err  error
		want string
	}{
		{nil, ""},
		{transport.ErrTimeout, FaultTimeout},
		{fmt.Errorf("wrap: %w", transport.ErrTimeout), FaultTimeout},
		{transport.ErrUnavailable, FaultServiceUnavailable},
		{&transport.UnavailableError{Endpoint: "x", Reason: "down"}, FaultServiceUnavailable},
		{transport.ErrEndpointNotFound, FaultServiceUnavailable},
		{&soap.Fault{Code: soap.FaultServer, String: "boom"}, FaultServiceFailure},
		{&soap.Fault{Code: soap.FaultClient, String: "bad"}, FaultServiceFailure},
		{errors.New("mystery"), FaultServiceFailure},
	}
	for _, tt := range tests {
		if got := ClassifyError(tt.err); got != tt.want {
			t.Errorf("ClassifyError(%v) = %q, want %q", tt.err, got, tt.want)
		}
	}
}

func TestClassifyResponse(t *testing.T) {
	if got := ClassifyResponse(nil); got != "" {
		t.Fatalf("nil = %q", got)
	}
	ok := soap.NewRequest(xmltree.New("", "fine"))
	if got := ClassifyResponse(ok); got != "" {
		t.Fatalf("ok = %q", got)
	}
	fault := soap.NewFaultEnvelope(soap.FaultServer, "err")
	if got := ClassifyResponse(fault); got != FaultServiceFailure {
		t.Fatalf("fault = %q", got)
	}
}

const monitorPolicyDoc = `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="mon">
  <MonitoringPolicy name="retailer-checks" subject="vep:Retailer" operation="getCatalog" validateContract="true">
    <PreCondition name="category-set">//getCatalog/category != ''</PreCondition>
    <PostCondition name="has-products" faultType="ServiceFailureFault">count(//Product) > 0</PostCondition>
  </MonitoringPolicy>
  <MonitoringPolicy name="retailer-sla" subject="vep:Retailer">
    <QoSThreshold name="rt" metric="responseTime" maxResponse="100ms" minSamples="2"/>
    <QoSThreshold name="rel" metric="reliability" min="0.9" minSamples="2"/>
    <QoSThreshold name="avail" metric="availability" min="0.99" minSamples="2"/>
  </MonitoringPolicy>
</PolicyDocument>`

func setup(t *testing.T) (*Monitor, *qos.Tracker, *event.Recorder, *clock.Fake) {
	t.Helper()
	repo := policy.NewRepository()
	if _, err := repo.LoadXML(monitorPolicyDoc); err != nil {
		t.Fatal(err)
	}
	fc := clock.NewFakeAtZero()
	tracker := qos.NewTracker(0, qos.WithClock(fc))
	bus := event.NewBus()
	var rec event.Recorder
	rec.Attach(bus)
	m := New(repo,
		WithClock(fc),
		WithQoSTracker(tracker),
		WithEventBus(bus),
		WithStore(NewStore(100)),
	)
	return m, tracker, &rec, fc
}

func retailerContract() *wsdl.Contract {
	c := wsdl.NewContract("Retailer", "urn:scm")
	c.AddOperation(wsdl.Operation{Name: "getCatalog"})
	return c
}

func reqEnv(t *testing.T, doc string) *soap.Envelope {
	t.Helper()
	p, err := xmltree.ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	env := soap.NewRequest(p)
	soap.SetProcessInstanceID(env, "proc-1")
	return env
}

func TestCheckRequestPreCondition(t *testing.T) {
	m, _, rec, _ := setup(t)
	c := retailerContract()

	good := reqEnv(t, `<getCatalog xmlns="urn:scm"><category>tv</category></getCatalog>`)
	if v := m.CheckRequest("vep:Retailer", "getCatalog", good, c); v != nil {
		t.Fatalf("good request violated: %v", v)
	}

	bad := reqEnv(t, `<getCatalog xmlns="urn:scm"><category></category></getCatalog>`)
	v := m.CheckRequest("vep:Retailer", "getCatalog", bad, c)
	if v == nil {
		t.Fatal("empty category accepted")
	}
	if v.Policy != "retailer-checks" || v.Check != "category-set" || v.FaultType != FaultServiceFailure {
		t.Fatalf("violation = %+v", v)
	}
	if !strings.Contains(v.Error(), "category-set") {
		t.Fatalf("Error() = %q", v.Error())
	}
	faults := rec.OfType(event.TypeFaultDetected)
	if len(faults) != 1 || faults[0].ProcessInstanceID != "proc-1" {
		t.Fatalf("fault events = %+v", faults)
	}
}

func TestCheckResponsePostCondition(t *testing.T) {
	m, _, _, _ := setup(t)
	c := retailerContract()

	good := reqEnv(t, `<getCatalogResponse xmlns="urn:scm"><Product>tv</Product></getCatalogResponse>`)
	if v := m.CheckResponse("vep:Retailer", "getCatalog", good, c); v != nil {
		t.Fatalf("good response violated: %v", v)
	}
	empty := reqEnv(t, `<getCatalogResponse xmlns="urn:scm"/>`)
	if v := m.CheckResponse("vep:Retailer", "getCatalog", empty, c); v == nil {
		t.Fatal("empty catalog accepted")
	}
}

func TestContractValidationViolation(t *testing.T) {
	m, _, _, _ := setup(t)
	c := retailerContract()
	wrong := reqEnv(t, `<somethingElse xmlns="urn:scm"/>`)
	v := m.CheckRequest("vep:Retailer", "getCatalog", wrong, c)
	if v == nil || v.Check != "contract" {
		t.Fatalf("violation = %+v", v)
	}
}

func TestScopeRestrictsChecks(t *testing.T) {
	m, _, _, _ := setup(t)
	// Different subject: no policies apply, anything passes.
	odd := reqEnv(t, `<weird/>`)
	if v := m.CheckRequest("vep:Other", "getCatalog", odd, nil); v != nil {
		t.Fatalf("out-of-scope request violated: %v", v)
	}
}

func TestCheckQoSThresholds(t *testing.T) {
	m, tracker, rec, fc := setup(t)

	// Two slow successes breach the 100ms response-time SLA.
	tracker.Record("inproc://retailer-a", 300*time.Millisecond, true)
	fc.Advance(time.Second)
	tracker.Record("inproc://retailer-a", 500*time.Millisecond, true)

	vs := m.CheckQoS("vep:Retailer", "inproc://retailer-a")
	if len(vs) != 1 {
		t.Fatalf("violations = %+v", vs)
	}
	if vs[0].Check != "rt" || vs[0].FaultType != FaultSLAViolation {
		t.Fatalf("violation = %+v", vs[0])
	}
	slas := rec.OfType(event.TypeSLAViolation)
	if len(slas) != 1 || slas[0].Data["target"] != "inproc://retailer-a" {
		t.Fatalf("sla events = %+v", slas)
	}
}

func TestCheckQoSReliabilityAndAvailability(t *testing.T) {
	m, tracker, _, fc := setup(t)
	// 1 of 4 failing → reliability 0.75 < 0.9; availability also drops.
	for i := 0; i < 3; i++ {
		tracker.Record("t", 10*time.Millisecond, true)
		fc.Advance(time.Second)
	}
	tracker.Record("t", 10*time.Millisecond, false)
	fc.Advance(time.Second)

	vs := m.CheckQoS("vep:Retailer", "t")
	checks := map[string]bool{}
	for _, v := range vs {
		checks[v.Check] = true
	}
	if !checks["rel"] {
		t.Fatalf("reliability violation missing: %+v", vs)
	}
	if !checks["avail"] {
		t.Fatalf("availability violation missing: %+v", vs)
	}
}

func TestCheckQoSMinSamples(t *testing.T) {
	m, tracker, _, _ := setup(t)
	tracker.Record("t", time.Hour, true) // terrible, but only 1 sample
	if vs := m.CheckQoS("vep:Retailer", "t"); len(vs) != 0 {
		t.Fatalf("violations with too few samples: %+v", vs)
	}
}

func TestCheckQoSUnknownTarget(t *testing.T) {
	m, _, _, _ := setup(t)
	if vs := m.CheckQoS("vep:Retailer", "ghost"); vs != nil {
		t.Fatalf("violations for unknown target: %+v", vs)
	}
}

func TestReportInvocationFault(t *testing.T) {
	m, _, rec, _ := setup(t)
	env := reqEnv(t, `<getCatalog xmlns="urn:scm"><category>tv</category></getCatalog>`)

	ft := m.ReportInvocationFault("vep:Retailer", "getCatalog", "inproc://a", env, transport.ErrTimeout)
	if ft != FaultTimeout {
		t.Fatalf("fault type = %q", ft)
	}
	ev := rec.OfType(event.TypeFaultDetected)
	if len(ev) != 1 || ev[0].FaultType != FaultTimeout || ev[0].Data["target"] != "inproc://a" {
		t.Fatalf("events = %+v", ev)
	}
	if ev[0].ProcessInstanceID != "proc-1" {
		t.Fatalf("instance correlation lost: %+v", ev[0])
	}

	// Healthy outcome reports nothing.
	if ft := m.ReportInvocationFault("vep:Retailer", "getCatalog", "a", env, nil); ft != "" {
		t.Fatalf("healthy = %q", ft)
	}

	// Fault envelope without error.
	fault := soap.NewFaultEnvelope(soap.FaultServer, "oops")
	if ft := m.ReportInvocationFault("vep:Retailer", "getCatalog", "a", fault, nil); ft != FaultServiceFailure {
		t.Fatalf("fault envelope = %q", ft)
	}
}

func TestObserveMessagePublishesAndStores(t *testing.T) {
	m, _, rec, _ := setup(t)
	env := reqEnv(t, `<placeOrder xmlns="urn:trade"><Amount>5</Amount></placeOrder>`)
	m.ObserveMessage("TradingProcess", "placeOrder", env, wsdl.Request)

	evs := rec.OfType(event.TypeMessageIntercepted)
	if len(evs) != 1 || evs[0].Operation != "placeOrder" {
		t.Fatalf("events = %+v", evs)
	}
	if m.Store().CountForInstance("proc-1") != 1 {
		t.Fatal("message not stored")
	}
}

func TestHistoryVariableInAssertions(t *testing.T) {
	repo := policy.NewRepository()
	_, err := repo.LoadXML(`
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="hist">
  <MonitoringPolicy name="first-three-only" subject="S">
    <PreCondition name="limit">$instanceMessageCount &lt;= 3</PreCondition>
  </MonitoringPolicy>
</PolicyDocument>`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(repo, WithStore(NewStore(10)))
	env := reqEnv(t, `<op/>`)
	// As at a VEP: ObserveMessage stores the message, then CheckRequest
	// evaluates, so counts include it.
	for i := 0; i < 3; i++ {
		m.ObserveMessage("S", "op", env, wsdl.Request)
		if v := m.CheckRequest("S", "op", env, nil); v != nil {
			t.Fatalf("message %d violated: %v", i+1, v)
		}
	}
	m.ObserveMessage("S", "op", env, wsdl.Request)
	if v := m.CheckRequest("S", "op", env, nil); v == nil {
		t.Fatal("fourth message accepted despite history limit")
	}
}

// --- Store ---

func TestStoreEviction(t *testing.T) {
	s := NewStore(3)
	for i := 0; i < 5; i++ {
		s.Record(StoredMessage{InstanceID: fmt.Sprintf("p%d", i), Envelope: soap.NewRequest(xmltree.New("", "m"))})
	}
	if s.Len() != 3 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.CountForInstance("p0") != 0 || s.CountForInstance("p4") != 1 {
		t.Fatal("eviction kept wrong messages")
	}
}

// TestStoreEvictionWrapAround records capacity+3 messages so the write
// position wraps, then checks the history reads oldest-first and that
// Reset leaves a store that fills and wraps again.
func TestStoreEvictionWrapAround(t *testing.T) {
	const capacity = 4
	s := NewStore(capacity)
	fill := func(prefix string) {
		for i := 0; i < capacity+3; i++ {
			s.Record(StoredMessage{InstanceID: fmt.Sprintf("%s%d", prefix, i),
				Envelope: soap.NewRequest(xmltree.New("", "m"))})
		}
	}
	check := func(prefix string) {
		t.Helper()
		got := s.Query(Filter{})
		if len(got) != capacity || s.Len() != capacity {
			t.Fatalf("retained %d messages, Len %d, want %d", len(got), s.Len(), capacity)
		}
		for i, m := range got { // oldest first
			if want := fmt.Sprintf("%s%d", prefix, 3+i); m.InstanceID != want {
				t.Fatalf("Query()[%d] = %s, want %s", i, m.InstanceID, want)
			}
		}
	}
	fill("p")
	check("p")
	s.Reset()
	if s.Len() != 0 || s.Query(Filter{}) != nil {
		t.Fatal("Reset left messages behind")
	}
	fill("q")
	check("q")
}

func TestStoreQueryFilter(t *testing.T) {
	s := NewStore(10)
	mk := func(inst, subj, op string, dir wsdl.Direction) StoredMessage {
		return StoredMessage{InstanceID: inst, Subject: subj, Operation: op, Direction: dir,
			Envelope: soap.NewRequest(xmltree.New("", op))}
	}
	s.Record(mk("p1", "A", "op1", wsdl.Request))
	s.Record(mk("p1", "A", "op1", wsdl.Response))
	s.Record(mk("p2", "B", "op2", wsdl.Request))

	if got := len(s.Query(Filter{InstanceID: "p1"})); got != 2 {
		t.Fatalf("p1 = %d", got)
	}
	if got := len(s.Query(Filter{Subject: "B"})); got != 1 {
		t.Fatalf("B = %d", got)
	}
	if got := len(s.Query(Filter{Direction: wsdl.Response})); got != 1 {
		t.Fatalf("responses = %d", got)
	}
	if got := len(s.Query(Filter{})); got != 3 {
		t.Fatalf("all = %d", got)
	}
}

func TestStoreCountMatching(t *testing.T) {
	s := NewStore(10)
	for _, amount := range []string{"500", "15000", "20000"} {
		p, _ := xmltree.ParseString(`<order><Amount>` + amount + `</Amount></order>`)
		s.Record(StoredMessage{InstanceID: "p1", Envelope: soap.NewRequest(p)})
	}
	expr := xpath.MustCompile("number(//Amount) > 10000")
	n, err := s.CountMatching(Filter{InstanceID: "p1"}, expr)
	if err != nil || n != 2 {
		t.Fatalf("count = %d err=%v", n, err)
	}
}

func TestStoreQueryReturnsCopies(t *testing.T) {
	s := NewStore(10)
	p, _ := xmltree.ParseString(`<m><v>1</v></m>`)
	s.Record(StoredMessage{InstanceID: "p1", Envelope: soap.NewRequest(p)})
	got := s.Query(Filter{})[0]
	got.Envelope.Payload.Child("", "v").Text = "mutated"
	again := s.Query(Filter{})[0]
	if again.Envelope.Payload.ChildText("", "v") != "1" {
		t.Fatal("Query exposed internal envelope")
	}
}

func TestStoreReset(t *testing.T) {
	s := NewStore(10)
	s.Record(StoredMessage{InstanceID: "p", Envelope: soap.NewRequest(xmltree.New("", "m"))})
	s.Reset()
	if s.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
}
