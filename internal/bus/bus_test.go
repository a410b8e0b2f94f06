package bus

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/masc-project/masc/internal/event"
	"github.com/masc-project/masc/internal/monitor"
	"github.com/masc-project/masc/internal/policy"
	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/transport"
	"github.com/masc-project/masc/internal/wsdl"
	"github.com/masc-project/masc/internal/xmltree"
)

// scriptedService is a configurable fake downstream service.
type scriptedService struct {
	mu      sync.Mutex
	calls   int
	failFor int // first failFor calls fail
	errMode string
	delay   time.Duration
	respond func(req *soap.Envelope) *soap.Envelope
}

func (s *scriptedService) handler() transport.HandlerFunc {
	return func(_ context.Context, req *soap.Envelope) (*soap.Envelope, error) {
		s.mu.Lock()
		s.calls++
		n := s.calls
		mode := s.errMode
		failFor := s.failFor
		delay := s.delay
		respond := s.respond
		s.mu.Unlock()
		if delay > 0 {
			time.Sleep(delay)
		}
		if n <= failFor {
			switch mode {
			case "fault":
				return soap.NewFaultEnvelope(soap.FaultServer, "scripted failure"), nil
			default:
				return nil, &transport.UnavailableError{Endpoint: "scripted", Reason: "scripted outage"}
			}
		}
		if respond != nil {
			return respond(req), nil
		}
		op := req.PayloadName().Local
		return soap.NewRequest(xmltree.New("urn:scm", op+"Response")), nil
	}
}

func (s *scriptedService) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

func catalogReq(t *testing.T) *soap.Envelope {
	t.Helper()
	p, err := xmltree.ParseString(`<getCatalog xmlns="urn:scm"><category>tv</category></getCatalog>`)
	if err != nil {
		t.Fatal(err)
	}
	env := soap.NewRequest(p)
	soap.SetProcessInstanceID(env, "proc-1")
	return env
}

func scmContract() *wsdl.Contract {
	c := wsdl.NewContract("Retailer", "urn:scm")
	c.AddOperation(wsdl.Operation{Name: "getCatalog"})
	c.AddOperation(wsdl.Operation{Name: "submitOrder"})
	return c
}

// testBus assembles a network with services and a bus with one VEP.
func testBus(t *testing.T, policyXML string, services map[string]*scriptedService, cfg VEPConfig) (*Bus, *VEP, *event.Recorder) {
	t.Helper()
	net := transport.NewNetwork()
	var addrs []string
	for addr, svc := range services {
		net.Register(addr, svc.handler())
		addrs = append(addrs, addr)
	}
	if cfg.Services == nil {
		// Deterministic registration order.
		for _, a := range []string{"inproc://a", "inproc://b", "inproc://c", "inproc://d"} {
			for _, have := range addrs {
				if have == a {
					cfg.Services = append(cfg.Services, a)
				}
			}
		}
	}
	repo := policy.NewRepository()
	if policyXML != "" {
		if _, err := repo.LoadXML(policyXML); err != nil {
			t.Fatal(err)
		}
	}
	ev := event.NewBus()
	var rec event.Recorder
	rec.Attach(ev)
	b := New(net, WithPolicyRepository(repo), WithEventBus(ev), WithSeed(7))
	if cfg.Name == "" {
		cfg.Name = "Retailer"
	}
	if cfg.Contract == nil {
		cfg.Contract = scmContract()
	}
	v, err := b.CreateVEP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b, v, &rec
}

func TestVEPBasicInvocation(t *testing.T) {
	svc := &scriptedService{}
	_, v, _ := testBus(t, "", map[string]*scriptedService{"inproc://a": svc}, VEPConfig{})
	resp, err := v.Invoke(context.Background(), "", catalogReq(t))
	if err != nil {
		t.Fatal(err)
	}
	if resp.PayloadName().Local != "getCatalogResponse" {
		t.Fatalf("payload = %v", resp.PayloadName())
	}
	if svc.count() != 1 {
		t.Fatalf("calls = %d", svc.count())
	}
}

func TestVEPNoServices(t *testing.T) {
	_, v, _ := testBus(t, "", nil, VEPConfig{Services: []string{}})
	_, err := v.Invoke(context.Background(), "", catalogReq(t))
	if !errors.Is(err, transport.ErrEndpointNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestVEPFaultWithoutPolicyPropagates(t *testing.T) {
	svc := &scriptedService{failFor: 1000}
	_, v, rec := testBus(t, "", map[string]*scriptedService{"inproc://a": svc}, VEPConfig{})
	_, err := v.Invoke(context.Background(), "", catalogReq(t))
	if !errors.Is(err, transport.ErrUnavailable) {
		t.Fatalf("err = %v", err)
	}
	faults := rec.OfType(event.TypeFaultDetected)
	if len(faults) != 1 || faults[0].FaultType != "ServiceUnavailableFault" {
		t.Fatalf("fault events = %+v", faults)
	}
}

const retryPolicyXML = `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="p">
  <AdaptationPolicy name="retry3" subject="vep:Retailer" priority="5">
    <OnEvent type="fault.detected"/>
    <Actions><Retry maxAttempts="3" delay="1ms"/></Actions>
    <BusinessValue amount="-2.5" currency="AUD" reason="recovery cost"/>
  </AdaptationPolicy>
</PolicyDocument>`

func TestRetryPolicyRecovers(t *testing.T) {
	svc := &scriptedService{failFor: 2} // initial + 1 retry fail, 2nd retry succeeds
	_, v, rec := testBus(t, retryPolicyXML, map[string]*scriptedService{"inproc://a": svc}, VEPConfig{})
	resp, err := v.Invoke(context.Background(), "", catalogReq(t))
	if err != nil {
		t.Fatal(err)
	}
	if resp.IsFault() {
		t.Fatal("fault after recovery")
	}
	if svc.count() != 3 {
		t.Fatalf("calls = %d, want 3 (1 + 2 retries)", svc.count())
	}
	adapts := rec.OfType(event.TypeAdaptationCompleted)
	if len(adapts) != 1 || adapts[0].PolicyName != "retry3" {
		t.Fatalf("adaptation events = %+v", adapts)
	}
	if adapts[0].Data["businessValueAmount"] != "-2.5" {
		t.Fatalf("business value lost: %+v", adapts[0].Data)
	}
	if adapts[0].ProcessInstanceID != "proc-1" {
		t.Fatal("instance correlation lost in adaptation event")
	}
}

func TestRetryPolicyExhausted(t *testing.T) {
	svc := &scriptedService{failFor: 1000}
	_, v, _ := testBus(t, retryPolicyXML, map[string]*scriptedService{"inproc://a": svc}, VEPConfig{})
	_, err := v.Invoke(context.Background(), "", catalogReq(t))
	if !errors.Is(err, transport.ErrUnavailable) {
		t.Fatalf("err = %v", err)
	}
	if svc.count() != 4 { // initial + 3 retries
		t.Fatalf("calls = %d, want 4", svc.count())
	}
}

const retryThenFailoverXML = `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="p">
  <AdaptationPolicy name="retry-then-failover" subject="vep:Retailer" priority="5">
    <OnEvent type="fault.detected"/>
    <Actions>
      <Retry maxAttempts="2" delay="1ms"/>
      <Substitute selection="first"/>
    </Actions>
  </AdaptationPolicy>
</PolicyDocument>`

func TestRetryThenFailover(t *testing.T) {
	// The paper's Table 1 policy: retry the faulty service, then route
	// to a different retailer.
	bad := &scriptedService{failFor: 1000}
	good := &scriptedService{}
	_, v, _ := testBus(t, retryThenFailoverXML, map[string]*scriptedService{
		"inproc://a": bad,
		"inproc://b": good,
	}, VEPConfig{Selection: policy.SelectFirst})
	resp, err := v.Invoke(context.Background(), "", catalogReq(t))
	if err != nil || resp.IsFault() {
		t.Fatalf("resp=%v err=%v", resp, err)
	}
	if bad.count() != 3 { // initial + 2 retries
		t.Fatalf("bad calls = %d", bad.count())
	}
	if good.count() != 1 {
		t.Fatalf("good calls = %d", good.count())
	}
}

func TestSubstituteRespectsMaxAlternatives(t *testing.T) {
	a := &scriptedService{failFor: 1000}
	b := &scriptedService{failFor: 1000}
	c := &scriptedService{failFor: 1000}
	d := &scriptedService{}
	xml := `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="p">
  <AdaptationPolicy name="sub" subject="vep:Retailer" priority="5">
    <OnEvent type="fault.detected"/>
    <Actions><Substitute selection="first" maxAlternatives="2"/></Actions>
  </AdaptationPolicy>
</PolicyDocument>`
	_, v, _ := testBus(t, xml, map[string]*scriptedService{
		"inproc://a": a, "inproc://b": b, "inproc://c": c, "inproc://d": d,
	}, VEPConfig{Selection: policy.SelectFirst})
	_, err := v.Invoke(context.Background(), "", catalogReq(t))
	// Only b and c tried (2 alternatives); d never reached → failure.
	if err == nil {
		t.Fatal("expected failure with maxAlternatives=2")
	}
	if d.count() != 0 {
		t.Fatalf("d called %d times despite maxAlternatives", d.count())
	}
	if b.count() != 1 || c.count() != 1 {
		t.Fatalf("alternatives tried = b:%d c:%d", b.count(), c.count())
	}
}

func TestConcurrentInvocationFirstWins(t *testing.T) {
	// The slow service answers only once the test ends, so the
	// broadcast can return only through the first responder.
	release := make(chan struct{})
	defer close(release)
	slow := &scriptedService{respond: func(req *soap.Envelope) *soap.Envelope {
		<-release
		return soap.NewRequest(xmltree.New("urn:scm", "getCatalogResponse"))
	}}
	fast := &scriptedService{}
	xml := `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="p">
  <AdaptationPolicy name="bcast" subject="vep:Retailer" priority="5">
    <OnEvent type="fault.detected"/>
    <Actions><ConcurrentInvoke/></Actions>
  </AdaptationPolicy>
</PolicyDocument>`
	// Primary target fails; broadcast then hits both.
	primary := &scriptedService{failFor: 1000}
	_, v, _ := testBus(t, xml, map[string]*scriptedService{
		"inproc://a": primary, "inproc://b": slow, "inproc://c": fast,
	}, VEPConfig{Selection: policy.SelectFirst})
	// The broadcast includes the (failing) primary and both others.
	type result struct {
		resp *soap.Envelope
		err  error
	}
	done := make(chan result, 1)
	req := catalogReq(t)
	go func() {
		resp, err := v.Invoke(context.Background(), "", req)
		done <- result{resp, err}
	}()
	var r result
	select {
	case r = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("broadcast waits for the slowest target; first responder should win")
	}
	if r.err != nil || r.resp.IsFault() {
		t.Fatalf("resp=%v err=%v", r.resp, r.err)
	}
	if fast.count() != 1 {
		t.Fatalf("fast calls = %d", fast.count())
	}
}

func TestSkipPolicy(t *testing.T) {
	svc := &scriptedService{failFor: 1000}
	xml := `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="p">
  <AdaptationPolicy name="skip-logging" subject="vep:Retailer" priority="1">
    <OnEvent type="fault.detected"/>
    <Actions><Skip/></Actions>
  </AdaptationPolicy>
</PolicyDocument>`
	_, v, _ := testBus(t, xml, map[string]*scriptedService{"inproc://a": svc}, VEPConfig{})
	resp, err := v.Invoke(context.Background(), "", catalogReq(t))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Payload.AttrValue("", "skipped") != "true" {
		t.Fatalf("skip response = %v", resp.Payload)
	}
}

// TestProcessOnlyPolicyNeedsAdapter: on a bus with no ProcessAdapter a
// policy made only of process-layer actions executes nothing, so it
// has not handled the fault — the original failure (or the next
// policy) must answer, never a nil response with a nil error.
func TestProcessOnlyPolicyNeedsAdapter(t *testing.T) {
	const suspendOnly = `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="p">
  <AdaptationPolicy name="suspend" subject="vep:Retailer" priority="9">
    <OnEvent type="fault.detected"/>
    <Actions><SuspendProcess/></Actions>
  </AdaptationPolicy>%s
</PolicyDocument>`
	svc := &scriptedService{failFor: 1000}
	_, v, rec := testBus(t, fmt.Sprintf(suspendOnly, ""), map[string]*scriptedService{"inproc://a": svc}, VEPConfig{})
	resp, err := v.Invoke(context.Background(), "", catalogReq(t))
	if !errors.Is(err, transport.ErrUnavailable) {
		t.Fatalf("resp = %v err = %v, want the backend's outage", resp, err)
	}
	if adapts := rec.OfType(event.TypeAdaptationCompleted); len(adapts) != 0 {
		t.Fatalf("adaptations = %+v, want none", adapts)
	}

	// With a lower-priority messaging policy behind it, that one answers.
	_, v, rec = testBus(t, fmt.Sprintf(suspendOnly, `
  <AdaptationPolicy name="skip" subject="vep:Retailer" priority="1">
    <OnEvent type="fault.detected"/>
    <Actions><Skip/></Actions>
  </AdaptationPolicy>`), map[string]*scriptedService{"inproc://a": svc}, VEPConfig{})
	resp, err = v.Invoke(context.Background(), "", catalogReq(t))
	if err != nil || resp.Payload.AttrValue("", "skipped") != "true" {
		t.Fatalf("resp = %v err = %v, want the skip policy's response", resp, err)
	}
	if adapts := rec.OfType(event.TypeAdaptationCompleted); len(adapts) != 1 || adapts[0].PolicyName != "skip" {
		t.Fatalf("adaptations = %+v", adapts)
	}
}

func TestPolicyPriorityOrder(t *testing.T) {
	svc := &scriptedService{failFor: 1000}
	// High-priority skip should win over low-priority retry.
	xml := `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="p">
  <AdaptationPolicy name="retry" subject="vep:Retailer" priority="1">
    <OnEvent type="fault.detected"/>
    <Actions><Retry maxAttempts="5" delay="1ms"/></Actions>
  </AdaptationPolicy>
  <AdaptationPolicy name="skip" subject="vep:Retailer" priority="9">
    <OnEvent type="fault.detected"/>
    <Actions><Skip/></Actions>
  </AdaptationPolicy>
</PolicyDocument>`
	_, v, rec := testBus(t, xml, map[string]*scriptedService{"inproc://a": svc}, VEPConfig{})
	resp, err := v.Invoke(context.Background(), "", catalogReq(t))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Payload.AttrValue("", "skipped") != "true" {
		t.Fatal("high-priority skip did not win")
	}
	if svc.count() != 1 {
		t.Fatalf("calls = %d; retry policy should not have run", svc.count())
	}
	adapts := rec.OfType(event.TypeAdaptationCompleted)
	if len(adapts) != 1 || adapts[0].PolicyName != "skip" {
		t.Fatalf("adaptations = %+v", adapts)
	}
}

func TestPolicyFaultTypeNarrowing(t *testing.T) {
	svc := &scriptedService{failFor: 1000, errMode: "fault"} // ServiceFailureFault
	xml := `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="p">
  <AdaptationPolicy name="timeout-only" subject="vep:Retailer" priority="5">
    <OnEvent type="fault.detected" faultType="TimeoutFault"/>
    <Actions><Skip/></Actions>
  </AdaptationPolicy>
</PolicyDocument>`
	_, v, _ := testBus(t, xml, map[string]*scriptedService{"inproc://a": svc}, VEPConfig{})
	resp, err := v.Invoke(context.Background(), "", catalogReq(t))
	// TimeoutFault policy must not trigger on ServiceFailureFault.
	if err == nil && resp != nil && resp.Payload != nil && resp.Payload.AttrValue("", "skipped") == "true" {
		t.Fatal("policy for TimeoutFault fired on ServiceFailureFault")
	}
}

func TestPolicyConditionOverMessage(t *testing.T) {
	svc := &scriptedService{failFor: 1000}
	xml := `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="p">
  <AdaptationPolicy name="skip-tv" subject="vep:Retailer" priority="5">
    <OnEvent type="fault.detected"/>
    <Condition>//getCatalog/category = 'tv'</Condition>
    <Actions><Skip/></Actions>
  </AdaptationPolicy>
</PolicyDocument>`
	_, v, _ := testBus(t, xml, map[string]*scriptedService{"inproc://a": svc}, VEPConfig{})

	// Matching message: skipped.
	resp, err := v.Invoke(context.Background(), "", catalogReq(t))
	if err != nil || resp.Payload.AttrValue("", "skipped") != "true" {
		t.Fatalf("matching condition: resp=%v err=%v", resp, err)
	}

	// Non-matching message: policy skipped, fault propagates.
	p, _ := xmltree.ParseString(`<getCatalog xmlns="urn:scm"><category>radio</category></getCatalog>`)
	otherReq := soap.NewRequest(p)
	if _, err := v.Invoke(context.Background(), "", otherReq); err == nil {
		t.Fatal("non-matching condition still adapted")
	}
}

func TestPolicyConditionVariables(t *testing.T) {
	svc := &scriptedService{failFor: 1000}
	xml := `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="p">
  <AdaptationPolicy name="unavail-only" subject="vep:Retailer" priority="5">
    <OnEvent type="fault.detected"/>
    <Condition>$faultType = 'ServiceUnavailableFault'</Condition>
    <Actions><Skip/></Actions>
  </AdaptationPolicy>
</PolicyDocument>`
	_, v, _ := testBus(t, xml, map[string]*scriptedService{"inproc://a": svc}, VEPConfig{})
	resp, err := v.Invoke(context.Background(), "", catalogReq(t))
	if err != nil || resp.Payload.AttrValue("", "skipped") != "true" {
		t.Fatalf("$faultType condition failed: resp=%v err=%v", resp, err)
	}
}

func TestScopeLimitsPolicyToVEP(t *testing.T) {
	svc := &scriptedService{failFor: 1000}
	xml := `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="p">
  <AdaptationPolicy name="other-vep" subject="vep:Warehouse" priority="5">
    <OnEvent type="fault.detected"/>
    <Actions><Skip/></Actions>
  </AdaptationPolicy>
</PolicyDocument>`
	_, v, _ := testBus(t, xml, map[string]*scriptedService{"inproc://a": svc}, VEPConfig{})
	if _, err := v.Invoke(context.Background(), "", catalogReq(t)); err == nil {
		t.Fatal("policy scoped to another VEP was applied")
	}
}

func TestBusGatewayAddressing(t *testing.T) {
	svc := &scriptedService{}
	b, _, _ := testBus(t, "", map[string]*scriptedService{"inproc://a": svc}, VEPConfig{})
	resp, err := b.Invoke(context.Background(), "vep:Retailer", catalogReq(t))
	if err != nil || resp.IsFault() {
		t.Fatalf("gateway invoke: %v %v", resp, err)
	}
	if _, err := b.Invoke(context.Background(), "vep:Nope", catalogReq(t)); !errors.Is(err, ErrUnknownVEP) {
		t.Fatalf("err = %v", err)
	}
}

func TestBusProxyMode(t *testing.T) {
	bad := &scriptedService{failFor: 1000}
	good := &scriptedService{}
	b, _, _ := testBus(t, retryThenFailoverXML, map[string]*scriptedService{
		"inproc://a": bad, "inproc://b": good,
	}, VEPConfig{Selection: policy.SelectFirst})

	// Transparent proxy: the client addresses the real (faulty)
	// service; the bus mediates through the VEP and fails over.
	if err := b.Proxy("inproc://a", "Retailer"); err != nil {
		t.Fatal(err)
	}
	resp, err := b.Invoke(context.Background(), "inproc://a", catalogReq(t))
	if err != nil || resp.IsFault() {
		t.Fatalf("proxied invoke: %v %v", resp, err)
	}
	if good.count() != 1 {
		t.Fatal("proxy did not fail over")
	}

	if err := b.Proxy("inproc://x", "Ghost"); !errors.Is(err, ErrUnknownVEP) {
		t.Fatalf("proxy to unknown VEP: %v", err)
	}
}

func TestBusPassthrough(t *testing.T) {
	svc := &scriptedService{}
	b, _, _ := testBus(t, "", map[string]*scriptedService{"inproc://a": svc}, VEPConfig{})
	// Unmapped address goes straight to the downstream network.
	resp, err := b.Invoke(context.Background(), "inproc://a", catalogReq(t))
	if err != nil || resp.IsFault() {
		t.Fatalf("passthrough: %v %v", resp, err)
	}
}

func TestDuplicateVEPRejected(t *testing.T) {
	b, _, _ := testBus(t, "", nil, VEPConfig{})
	if _, err := b.CreateVEP(VEPConfig{Name: "Retailer"}); !errors.Is(err, ErrDuplicateVEP) {
		t.Fatalf("err = %v", err)
	}
}

func TestVEPServiceRegistration(t *testing.T) {
	_, v, _ := testBus(t, "", nil, VEPConfig{Services: []string{}})
	v.RegisterService("inproc://x")
	v.RegisterService("inproc://x") // idempotent
	v.RegisterService("inproc://y")
	if got := v.Services(); len(got) != 2 {
		t.Fatalf("services = %v", got)
	}
	if !v.DeregisterService("inproc://x") {
		t.Fatal("deregister returned false")
	}
	if v.DeregisterService("inproc://x") {
		t.Fatal("double deregister returned true")
	}
}

func TestRoundRobinRotation(t *testing.T) {
	a := &scriptedService{}
	b2 := &scriptedService{}
	_, v, _ := testBus(t, "", map[string]*scriptedService{
		"inproc://a": a, "inproc://b": b2,
	}, VEPConfig{Selection: policy.SelectRoundRobin})
	for i := 0; i < 4; i++ {
		if _, err := v.Invoke(context.Background(), "", catalogReq(t)); err != nil {
			t.Fatal(err)
		}
	}
	if a.count() != 2 || b2.count() != 2 {
		t.Fatalf("round robin spread = a:%d b:%d", a.count(), b2.count())
	}
}

func TestBestResponseTimeSelection(t *testing.T) {
	slow := &scriptedService{delay: 30 * time.Millisecond}
	fast := &scriptedService{}
	_, v, _ := testBus(t, "", map[string]*scriptedService{
		"inproc://a": slow, "inproc://b": fast,
	}, VEPConfig{Selection: policy.SelectBestResponseTime})
	// Warm up both targets (unknowns are explored first).
	for i := 0; i < 2; i++ {
		if _, err := v.Invoke(context.Background(), "", catalogReq(t)); err != nil {
			t.Fatal(err)
		}
	}
	fastBefore := fast.count()
	for i := 0; i < 6; i++ {
		if _, err := v.Invoke(context.Background(), "", catalogReq(t)); err != nil {
			t.Fatal(err)
		}
	}
	if fast.count()-fastBefore != 6 {
		t.Fatalf("best-QoS selection did not converge on the fast target: fast=%d slow=%d",
			fast.count(), slow.count())
	}
}

func TestMonitoringPreConditionBlocksRequest(t *testing.T) {
	svc := &scriptedService{}
	xml := `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="p">
  <MonitoringPolicy name="needs-category" subject="vep:Retailer" operation="getCatalog">
    <PreCondition name="cat">//getCatalog/category != ''</PreCondition>
  </MonitoringPolicy>
</PolicyDocument>`
	_, v, _ := testBus(t, xml, map[string]*scriptedService{"inproc://a": svc}, VEPConfig{})
	p, _ := xmltree.ParseString(`<getCatalog xmlns="urn:scm"><category/></getCatalog>`)
	_, err := v.Invoke(context.Background(), "", soap.NewRequest(p))
	if err == nil {
		t.Fatal("violating request was forwarded")
	}
	if svc.count() != 0 {
		t.Fatal("service reached despite pre-condition violation")
	}
}

// TestExchangeStoresEachMessageOnce: one exchange through a VEP whose
// monitoring policy checks both directions adds exactly the request and
// the response to the instance's MonitoringStore history, so
// $instanceMessageCount counts messages, not monitor calls.
func TestExchangeStoresEachMessageOnce(t *testing.T) {
	xml := `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="p">
  <MonitoringPolicy name="both-ways" subject="vep:Retailer" operation="getCatalog">
    <PreCondition name="has-category">//getCatalog/category != ''</PreCondition>
    <PostCondition name="answered">count(//getCatalogResponse) = 1</PostCondition>
  </MonitoringPolicy>
</PolicyDocument>`
	b, v, _ := testBus(t, xml, map[string]*scriptedService{"inproc://a": {}}, VEPConfig{})
	if _, err := v.Invoke(context.Background(), "", catalogReq(t)); err != nil {
		t.Fatal(err)
	}
	stored := b.Monitor().Store().Query(monitor.Filter{InstanceID: "proc-1"})
	if len(stored) != 2 || stored[0].Direction != wsdl.Request || stored[1].Direction != wsdl.Response {
		t.Fatalf("stored %d messages for the exchange, want its request and its response: %+v", len(stored), stored)
	}
}

func TestPostConditionViolationTriggersCorrection(t *testing.T) {
	// First service returns an empty catalog (post-condition violation),
	// substitution recovers from the second.
	empty := &scriptedService{respond: func(*soap.Envelope) *soap.Envelope {
		return soap.NewRequest(xmltree.New("urn:scm", "getCatalogResponse"))
	}}
	full := &scriptedService{respond: func(*soap.Envelope) *soap.Envelope {
		r := xmltree.New("urn:scm", "getCatalogResponse")
		r.Append(xmltree.NewText("urn:scm", "Product", "tv"))
		return soap.NewRequest(r)
	}}
	xml := `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="p">
  <MonitoringPolicy name="nonempty" subject="vep:Retailer" operation="getCatalog">
    <PostCondition name="has-products">count(//Product) > 0</PostCondition>
  </MonitoringPolicy>
  <AdaptationPolicy name="failover" subject="vep:Retailer" priority="5">
    <OnEvent type="fault.detected"/>
    <Actions><Substitute selection="first"/></Actions>
  </AdaptationPolicy>
</PolicyDocument>`
	_, v, _ := testBus(t, xml, map[string]*scriptedService{
		"inproc://a": empty, "inproc://b": full,
	}, VEPConfig{Selection: policy.SelectFirst})
	resp, err := v.Invoke(context.Background(), "", catalogReq(t))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Payload.ChildText("", "Product") != "tv" {
		t.Fatalf("post-condition correction failed: %v", resp.Payload)
	}
}

func TestPipelineModulesRun(t *testing.T) {
	svc := &scriptedService{}
	_, v, _ := testBus(t, "", map[string]*scriptedService{"inproc://a": svc}, VEPConfig{})
	logger := NewMessageLogger(time.Now, 100)
	v.Pipeline().Append(logger)
	v.Pipeline().Append(&AdaptationModule{
		RequestTransforms: []Transform{func(p *xmltree.Element) error {
			p.Append(xmltree.NewText("urn:scm", "priority", "gold"))
			return nil
		}},
		ResponseTransforms: []Transform{RenameElements(map[string]string{"getCatalogResponse": "catalogue"})},
	})

	resp, err := v.Invoke(context.Background(), "", catalogReq(t))
	if err != nil {
		t.Fatal(err)
	}
	if resp.PayloadName().Local != "catalogue" {
		t.Fatalf("response transform missing: %v", resp.PayloadName())
	}
	entries := logger.Entries()
	if len(entries) != 2 {
		t.Fatalf("log entries = %d, want request+response", len(entries))
	}
	if entries[0].Direction != wsdl.Request || entries[1].Direction != wsdl.Response {
		t.Fatalf("entries = %+v", entries)
	}
	if entries[0].InstanceID != "proc-1" {
		t.Fatal("logger lost instance correlation")
	}
}

func TestQoSRecordedPerTarget(t *testing.T) {
	svc := &scriptedService{failFor: 1}
	b, v, _ := testBus(t, retryPolicyXML, map[string]*scriptedService{"inproc://a": svc}, VEPConfig{})
	if _, err := v.Invoke(context.Background(), "", catalogReq(t)); err != nil {
		t.Fatal(err)
	}
	snap := b.Tracker().Snapshot("inproc://a")
	if snap.Invocations != 2 || snap.Failures != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestPreventiveDemotion(t *testing.T) {
	slow := &scriptedService{delay: 50 * time.Millisecond}
	fast := &scriptedService{}
	xml := `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="p">
  <MonitoringPolicy name="sla" subject="vep:Retailer">
    <QoSThreshold metric="responseTime" maxResponse="10ms" minSamples="1"/>
  </MonitoringPolicy>
  <AdaptationPolicy name="prevent" subject="vep:Retailer" priority="5" kind="prevention">
    <OnEvent type="sla.violation"/>
    <Actions><Substitute selection="first"/></Actions>
  </AdaptationPolicy>
</PolicyDocument>`
	_, v, _ := testBus(t, xml, map[string]*scriptedService{
		"inproc://a": slow, "inproc://b": fast,
	}, VEPConfig{Selection: policy.SelectFirst})

	// Hit the slow target once to record its latency.
	if _, err := v.Invoke(context.Background(), "", catalogReq(t)); err != nil {
		t.Fatal(err)
	}
	if slow.count() != 1 {
		t.Fatalf("slow calls = %d", slow.count())
	}
	vs := v.CheckQoSAndPrevent(time.Minute)
	if len(vs) == 0 {
		t.Fatal("SLA violation not detected")
	}
	// Subsequent traffic avoids the demoted target.
	for i := 0; i < 3; i++ {
		if _, err := v.Invoke(context.Background(), "", catalogReq(t)); err != nil {
			t.Fatal(err)
		}
	}
	if slow.count() != 1 {
		t.Fatalf("demoted target still selected: %d calls", slow.count())
	}
	if fast.count() != 3 {
		t.Fatalf("fast calls = %d", fast.count())
	}
}

func TestReparsePolicySourceAblation(t *testing.T) {
	svc := &scriptedService{failFor: 1000}
	reparses := 0
	src := func() *policy.Repository {
		reparses++
		r := policy.NewRepository()
		if _, err := r.LoadXML(`
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="p">
  <AdaptationPolicy name="skip" subject="vep:R2" priority="1">
    <OnEvent type="fault.detected"/>
    <Actions><Skip/></Actions>
  </AdaptationPolicy>
</PolicyDocument>`); err != nil {
			t.Error(err)
		}
		return r
	}
	net := transport.NewNetwork()
	net.Register("inproc://a", svc.handler())
	b := New(net, WithPolicySource(src))
	v, err := b.CreateVEP(VEPConfig{Name: "R2", Services: []string{"inproc://a"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := v.Invoke(context.Background(), "", catalogReq(t)); err != nil {
			t.Fatal(err)
		}
	}
	if reparses != 3 {
		t.Fatalf("policy source consulted %d times, want per-fault re-parse", reparses)
	}
}

func TestAddressHelpers(t *testing.T) {
	_, v, _ := testBus(t, "", nil, VEPConfig{})
	if v.Address() != "vep:Retailer" || v.Subject() != "vep:Retailer" || v.Name() != "Retailer" {
		t.Fatalf("address helpers: %q %q %q", v.Address(), v.Subject(), v.Name())
	}
	if v.Contract() == nil {
		t.Fatal("contract lost")
	}
}

func TestBusVEPsSorted(t *testing.T) {
	b, _, _ := testBus(t, "", nil, VEPConfig{})
	if _, err := b.CreateVEP(VEPConfig{Name: "Alpha"}); err != nil {
		t.Fatal(err)
	}
	got := b.VEPs()
	if len(got) != 2 || got[0] != "Alpha" || got[1] != "Retailer" {
		t.Fatalf("VEPs = %v", got)
	}
}

func TestOperationOfFallsBackToPayloadName(t *testing.T) {
	svc := &scriptedService{}
	_, v, _ := testBus(t, "", map[string]*scriptedService{"inproc://a": svc}, VEPConfig{})
	// Unknown element not in contract: falls back to payload local name.
	p, _ := xmltree.ParseString(`<mysteryOp xmlns="urn:other"/>`)
	if _, err := v.Invoke(context.Background(), "", soap.NewRequest(p)); err != nil {
		t.Fatal(err)
	}
}

var _ = fmt.Sprintf
var _ = strings.TrimSpace

func TestVEPTimeoutClassifiedAndRecovered(t *testing.T) {
	// The Web services Invoker's timer raises a TimeoutFault (§3.1(2))
	// which a TimeoutFault-scoped policy then corrects by failover.
	slow := &scriptedService{delay: 200 * time.Millisecond}
	fast := &scriptedService{}
	xml := `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="p">
  <AdaptationPolicy name="timeout-failover" subject="vep:Retailer" priority="5">
    <OnEvent type="fault.detected" faultType="TimeoutFault"/>
    <Actions><Substitute selection="first"/></Actions>
  </AdaptationPolicy>
</PolicyDocument>`
	_, v, rec := testBus(t, xml, map[string]*scriptedService{
		"inproc://a": slow, "inproc://b": fast,
	}, VEPConfig{Selection: policy.SelectFirst, InvokeTimeout: 30 * time.Millisecond})

	resp, err := v.Invoke(context.Background(), "", catalogReq(t))
	if err != nil || resp.IsFault() {
		t.Fatalf("resp=%v err=%v", resp, err)
	}
	if fast.count() != 1 {
		t.Fatalf("failover target calls = %d", fast.count())
	}
	faults := rec.OfType(event.TypeFaultDetected)
	if len(faults) != 1 || faults[0].FaultType != "TimeoutFault" {
		t.Fatalf("fault events = %+v", faults)
	}
}

func TestOptimizationPolicySwitchesSelection(t *testing.T) {
	slow := &scriptedService{delay: 40 * time.Millisecond}
	fast := &scriptedService{}
	xml := `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="opt">
  <MonitoringPolicy name="sla" subject="vep:Retailer">
    <QoSThreshold metric="responseTime" maxResponse="10ms" minSamples="1"/>
  </MonitoringPolicy>
  <AdaptationPolicy name="optimize-routing" subject="vep:Retailer" priority="5" kind="optimization">
    <OnEvent type="sla.violation"/>
    <Actions><Substitute selection="bestResponseTime"/></Actions>
  </AdaptationPolicy>
</PolicyDocument>`
	_, v, rec := testBus(t, xml, map[string]*scriptedService{
		"inproc://a": slow, "inproc://b": fast,
	}, VEPConfig{Selection: policy.SelectRoundRobin})

	// Warm both targets so the best-QoS selector has data, breaching
	// the SLA on the slow one.
	for i := 0; i < 2; i++ {
		if _, err := v.Invoke(context.Background(), "", catalogReq(t)); err != nil {
			t.Fatal(err)
		}
	}
	if vs := v.CheckQoSAndPrevent(time.Minute); len(vs) == 0 {
		t.Fatal("SLA violation not detected")
	}

	// The optimizing policy switched the VEP from round-robin to
	// best-response-time: all subsequent traffic goes to the fast target.
	slowBefore := slow.count()
	for i := 0; i < 4; i++ {
		if _, err := v.Invoke(context.Background(), "", catalogReq(t)); err != nil {
			t.Fatal(err)
		}
	}
	if slow.count() != slowBefore {
		t.Fatalf("slow target still selected after optimization (%d calls)", slow.count()-slowBefore)
	}
	adapts := rec.OfType("adaptation.completed")
	found := false
	for _, ev := range adapts {
		if ev.PolicyName == "optimize-routing" {
			found = true
		}
	}
	if !found {
		t.Fatalf("optimization adaptation not reported: %+v", adapts)
	}
}
