package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/masc-project/masc/internal/event"
	"github.com/masc-project/masc/internal/policy"
	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/transport"
	"github.com/masc-project/masc/internal/workflow"
	"github.com/masc-project/masc/internal/xmltree"
)

// fakeServices implements a downstream network recording calls.
type fakeServices struct {
	net *transport.Network
	mu  sync.Mutex
	log []string
}

func newFakeServices() *fakeServices {
	return &fakeServices{net: transport.NewNetwork()}
}

func (f *fakeServices) add(addr string, respond func(req *soap.Envelope) (*soap.Envelope, error)) {
	f.net.Register(addr, transport.HandlerFunc(func(_ context.Context, req *soap.Envelope) (*soap.Envelope, error) {
		op := soap.ReadAddressing(req).Action
		if op == "" {
			op = req.PayloadName().Local
		}
		f.mu.Lock()
		f.log = append(f.log, addr+" "+op)
		f.mu.Unlock()
		if respond != nil {
			return respond(req)
		}
		return soap.NewRequest(xmltree.New("urn:t", op+"Response")), nil
	}))
}

func (f *fakeServices) calls() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, len(f.log))
	copy(out, f.log)
	return out
}

func el(t *testing.T, doc string) *xmltree.Element {
	t.Helper()
	e, err := xmltree.ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// baseTradingXML is a miniature of the paper's national stock-trading
// base process (§2.2, Fig. 2).
const baseTradingXML = `
<process xmlns="urn:masc:workflow" name="TradingProcess">
  <variables><variable name="order"/><variable name="analysis"/></variables>
  <sequence name="main">
    <invoke name="VerifyOrder" endpoint="inproc://fundmanager" operation="verifyOrder" input="order" output="verified"/>
    <invoke name="Analyze" endpoint="inproc://analysis" operation="analyze" input="order" output="analysis"/>
    <invoke name="MarketCompliance" endpoint="inproc://compliance" operation="checkCompliance" input="order"/>
    <invoke name="Trade" endpoint="inproc://market" operation="executeTrade" input="order"/>
  </sequence>
</process>`

func tradingStack(t *testing.T, policies string) (*Stack, *fakeServices) {
	t.Helper()
	f := newFakeServices()
	for _, addr := range []string{
		"inproc://fundmanager", "inproc://analysis", "inproc://compliance",
		"inproc://market", "inproc://currency", "inproc://pest", "inproc://credit",
	} {
		f.add(addr, nil)
	}
	s := NewStack(f.net)
	t.Cleanup(s.Close)
	if policies != "" {
		if err := s.LoadPolicies(policies); err != nil {
			t.Fatal(err)
		}
	}
	def, err := workflow.ParseDefinitionString(baseTradingXML)
	if err != nil {
		t.Fatal(err)
	}
	s.Engine.Deploy(def)
	return s, f
}

func domesticOrder(t *testing.T) map[string]*xmltree.Element {
	return map[string]*xmltree.Element{
		"order": el(t, `<placeOrder xmlns="urn:trade"><Market>domestic</Market><Amount>500</Amount><Country>Australia</Country><Profile>personal</Profile></placeOrder>`),
	}
}

func internationalOrder(t *testing.T, amount string) map[string]*xmltree.Element {
	return map[string]*xmltree.Element{
		"order": el(t, `<placeOrder xmlns="urn:trade"><Market>international</Market><Amount>`+amount+`</Amount><Country>Japan</Country><Profile>corporate</Profile></placeOrder>`),
	}
}

func runToCompletion(t *testing.T, s *Stack, inputs map[string]*xmltree.Element) (*workflow.Instance, []string) {
	t.Helper()
	inst, err := s.Engine.Start("TradingProcess", inputs)
	if err != nil {
		t.Fatal(err)
	}
	st, err := inst.Wait(5 * time.Second)
	if err != nil || st != workflow.StateCompleted {
		t.Fatalf("state=%s err=%v", st, err)
	}
	return inst, nil
}

// E4a: static customization adds CurrencyConversion for international
// orders, without touching the process definition.
const addCurrencyPolicy = `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="intl">
  <AdaptationPolicy name="add-currency-conversion" subject="TradingProcess" kind="customization" layer="process" priority="5">
    <OnEvent type="process.started"/>
    <Condition>//order/placeOrder/Market != 'domestic'</Condition>
    <StateAfter>international</StateAfter>
    <Actions>
      <AddActivity anchor="Analyze" position="after">
        <Activity>
          <invoke name="CurrencyConversion" endpoint="inproc://currency" operation="convert" input="order"/>
        </Activity>
      </AddActivity>
    </Actions>
    <BusinessValue amount="12.5" currency="AUD" reason="international trade fee"/>
  </AdaptationPolicy>
</PolicyDocument>`

func TestStaticCustomizationAddsCurrencyConversion(t *testing.T) {
	s, f := tradingStack(t, addCurrencyPolicy)

	// International order: CurrencyConversion inserted after Analyze.
	inst, _ := runToCompletion(t, s, internationalOrder(t, "5000"))
	calls := strings.Join(f.calls(), ",")
	want := "inproc://fundmanager verifyOrder,inproc://analysis analyze,inproc://currency convert,inproc://compliance checkCompliance,inproc://market executeTrade"
	if calls != want {
		t.Fatalf("calls = %q\nwant   %q", calls, want)
	}
	if inst.AdaptationState() != "international" {
		t.Fatalf("adaptation state = %q", inst.AdaptationState())
	}
	// Business value booked.
	if got := s.Ledger.Total("AUD"); got != 12.5 {
		t.Fatalf("ledger total = %v", got)
	}
}

func TestStaticCustomizationSkipsDomestic(t *testing.T) {
	s, f := tradingStack(t, addCurrencyPolicy)
	runToCompletion(t, s, domesticOrder(t))
	for _, c := range f.calls() {
		if strings.Contains(c, "currency") {
			t.Fatalf("domestic order invoked CurrencyConversion: %v", f.calls())
		}
	}
	if s.Ledger.Total("AUD") != 0 {
		t.Fatal("business value booked without adaptation")
	}
}

// E4b: conditional PEST analysis by country, CreditRating by amount and
// profile, and removal of MarketCompliance below a threshold — the
// full §2.2 experiment set in one document.
const fullCustomizationPolicies = `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="intl-full">
  <AdaptationPolicy name="add-pest-for-japan" subject="TradingProcess" kind="customization" layer="process" priority="6">
    <OnEvent type="process.started"/>
    <Condition>//order/placeOrder/Country = 'Japan'</Condition>
    <Actions>
      <AddActivity anchor="Analyze" position="after">
        <Activity><invoke name="PESTAnalysis" endpoint="inproc://pest" operation="assess" input="order"/></Activity>
      </AddActivity>
    </Actions>
  </AdaptationPolicy>
  <AdaptationPolicy name="add-credit-rating" subject="TradingProcess" kind="customization" layer="process" priority="5">
    <OnEvent type="process.started"/>
    <Condition>number(//order/placeOrder/Amount) > 10000 or //order/placeOrder/Profile = 'corporate'</Condition>
    <Actions>
      <AddActivity anchor="Trade" position="before">
        <Activity><invoke name="CreditRating" endpoint="inproc://credit" operation="rate" input="order"/></Activity>
      </AddActivity>
    </Actions>
  </AdaptationPolicy>
  <AdaptationPolicy name="drop-compliance-small-trades" subject="TradingProcess" kind="customization" layer="process" priority="4">
    <OnEvent type="process.started"/>
    <Condition>number(//order/placeOrder/Amount) &lt; 1000</Condition>
    <Actions>
      <RemoveActivity activity="MarketCompliance"/>
    </Actions>
  </AdaptationPolicy>
</PolicyDocument>`

func TestCustomizationScenarioMatrix(t *testing.T) {
	tests := []struct {
		name       string
		inputs     func(*testing.T) map[string]*xmltree.Element
		wantPEST   bool
		wantCredit bool
		wantComply bool
	}{
		{
			name:       "small domestic personal",
			inputs:     domesticOrder, // Amount 500 (<1000), Australia, personal
			wantPEST:   false,
			wantCredit: false,
			wantComply: false, // removed below threshold
		},
		{
			name: "large japanese corporate",
			inputs: func(t *testing.T) map[string]*xmltree.Element {
				return internationalOrder(t, "50000")
			},
			wantPEST:   true,
			wantCredit: true,
			wantComply: true,
		},
		{
			name: "small japanese corporate",
			inputs: func(t *testing.T) map[string]*xmltree.Element {
				return internationalOrder(t, "200")
			},
			wantPEST:   true,
			wantCredit: true,  // corporate profile
			wantComply: false, // small trade
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s, f := tradingStack(t, fullCustomizationPolicies)
			runToCompletion(t, s, tt.inputs(t))
			calls := strings.Join(f.calls(), ",")
			if got := strings.Contains(calls, "pest"); got != tt.wantPEST {
				t.Errorf("PEST invoked = %v, want %v (calls %s)", got, tt.wantPEST, calls)
			}
			if got := strings.Contains(calls, "credit"); got != tt.wantCredit {
				t.Errorf("CreditRating invoked = %v, want %v (calls %s)", got, tt.wantCredit, calls)
			}
			if got := strings.Contains(calls, "compliance"); got != tt.wantComply {
				t.Errorf("MarketCompliance invoked = %v, want %v (calls %s)", got, tt.wantComply, calls)
			}
		})
	}
}

// TestDynamicCustomizationViaMessageInterception is the §2.1 dynamic
// path: monitoring observes a message of a *running* instance, the
// decision maker matches a customization policy, and the adaptation
// service suspends/edits/resumes the instance.
func TestDynamicCustomizationViaMessageInterception(t *testing.T) {
	s, f := tradingStack(t, `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="dyn">
  <AdaptationPolicy name="add-credit-on-big-order" subject="TradingProcess" kind="customization" layer="process" priority="5">
    <OnEvent type="message.intercepted"/>
    <Condition>number(//verifyOrderResponse/approvedAmount) > 10000</Condition>
    <StateBefore></StateBefore>
    <StateAfter>credit-checked</StateAfter>
    <Actions>
      <AddActivity anchor="Trade" position="before">
        <Activity><invoke name="CreditRating" endpoint="inproc://credit" operation="rate" input="order"/></Activity>
      </AddActivity>
    </Actions>
  </AdaptationPolicy>
</PolicyDocument>`)

	// The fund manager approves a large amount; its response flows back
	// through the monitor, triggering the dynamic insertion.
	f.add("inproc://fundmanager", func(req *soap.Envelope) (*soap.Envelope, error) {
		r := xmltree.New("urn:t", "verifyOrderResponse")
		r.Append(xmltree.NewText("urn:t", "approvedAmount", "50000"))
		return soap.NewRequest(r), nil
	})

	// Route the fund manager call through a VEP so the monitor sees the
	// response (dynamic interception happens at the messaging layer).
	vep, err := s.Bus.CreateVEP(busVEPConfig("FundManager", "inproc://fundmanager"))
	if err != nil {
		t.Fatal(err)
	}
	_ = vep
	if err := s.Bus.Proxy("inproc://fundmanager", "FundManager"); err != nil {
		t.Fatal(err)
	}

	inst, _ := runToCompletion(t, s, internationalOrder(t, "50000"))
	calls := strings.Join(f.calls(), ",")
	if !strings.Contains(calls, "inproc://credit rate") {
		t.Fatalf("dynamic insertion did not run CreditRating: %s", calls)
	}
	// Inserted before Trade.
	credIdx := strings.Index(calls, "credit rate")
	tradeIdx := strings.Index(calls, "market executeTrade")
	if credIdx > tradeIdx {
		t.Fatalf("CreditRating ran after Trade: %s", calls)
	}
	if inst.AdaptationState() != "credit-checked" {
		t.Fatalf("state = %q", inst.AdaptationState())
	}
}

// TestDynamicCustomizationRunsOnce guards against the same policy
// firing repeatedly: StateBefore/StateAfter make it idempotent.
func TestDynamicCustomizationStateGuard(t *testing.T) {
	s, f := tradingStack(t, `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="dyn">
  <AdaptationPolicy name="once" subject="TradingProcess" kind="customization" layer="process" priority="5">
    <OnEvent type="message.intercepted"/>
    <StateBefore></StateBefore>
    <StateAfter>done-once</StateAfter>
    <Actions>
      <AddActivity position="atEnd">
        <Activity><invoke name="Extra" endpoint="inproc://pest" operation="assess" input="order"/></Activity>
      </AddActivity>
    </Actions>
  </AdaptationPolicy>
</PolicyDocument>`)
	for _, addr := range []string{"inproc://fundmanager", "inproc://analysis"} {
		vepName := "V" + addr[len(addr)-4:]
		if _, err := s.Bus.CreateVEP(busVEPConfig(vepName, addr)); err != nil {
			t.Fatal(err)
		}
		if err := s.Bus.Proxy(addr, vepName); err != nil {
			t.Fatal(err)
		}
	}
	runToCompletion(t, s, domesticOrder(t))
	count := 0
	for _, c := range f.calls() {
		if strings.Contains(c, "pest assess") {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("Extra activity ran %d times, want exactly 1 (state guard)", count)
	}
}

// TestCrossLayerCoordination is E7: a fault at the messaging layer
// triggers a both-layer policy that suspends the calling instance,
// raises the in-flight invoke's timeout, retries at the bus, and
// resumes — correlated purely via the RelatesTo/ProcessInstanceID
// header (§3.1(3)).
func TestCrossLayerCoordination(t *testing.T) {
	f := newFakeServices()
	var calls int32
	var mu sync.Mutex
	f.net.Register("inproc://market", transport.HandlerFunc(func(_ context.Context, req *soap.Envelope) (*soap.Envelope, error) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n == 1 {
			return nil, &transport.UnavailableError{Endpoint: "inproc://market", Reason: "restarting"}
		}
		// Slow success: only survives because the timeout was raised.
		time.Sleep(120 * time.Millisecond)
		return soap.NewRequest(xmltree.New("urn:t", "executeTradeResponse")), nil
	}))
	s := NewStack(f.net)
	t.Cleanup(s.Close)
	if err := s.LoadPolicies(`
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="xlayer">
  <AdaptationPolicy name="suspend-extend-retry" subject="vep:Market" priority="8" layer="both">
    <OnEvent type="fault.detected"/>
    <Actions>
      <SuspendProcess/>
      <AdjustTimeout activity="Trade" newTimeout="5s"/>
      <Retry maxAttempts="2" delay="10ms"/>
      <ResumeProcess/>
    </Actions>
  </AdaptationPolicy>
</PolicyDocument>`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Bus.CreateVEP(busVEPConfig("Market", "inproc://market")); err != nil {
		t.Fatal(err)
	}

	def, err := workflow.ParseDefinitionString(`
<process xmlns="urn:masc:workflow" name="P">
  <variables><variable name="order"/></variables>
  <invoke name="Trade" endpoint="vep:Market" operation="executeTrade" input="order" timeout="60ms"/>
</process>`)
	if err != nil {
		t.Fatal(err)
	}
	s.Engine.Deploy(def)

	inst, err := s.Engine.Start("P", map[string]*xmltree.Element{
		"order": el(t, `<executeTrade xmlns="urn:t"><Amount>10</Amount></executeTrade>`),
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := inst.Wait(10 * time.Second)
	if err != nil || st != workflow.StateCompleted {
		t.Fatalf("state=%s err=%v (cross-layer rescue failed)", st, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 2 {
		t.Fatalf("market calls = %d, want 2 (fault + rescued retry)", calls)
	}
}

// --- process adapter unit tests ---

func TestExecuteProcessActionLifecycle(t *testing.T) {
	s, _ := tradingStack(t, "")
	inst, err := s.Engine.CreateInstance("TradingProcess", domesticOrder(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	if err := s.Adaptation.ExecuteProcessAction(ctx, inst.ID(), policy.SuspendProcessAction{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Adaptation.ExecuteProcessAction(ctx, inst.ID(), policy.ResumeProcessAction{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Adaptation.ExecuteProcessAction(ctx, inst.ID(), policy.AdjustTimeoutAction{Activity: "Trade", NewTimeout: time.Minute}); err != nil {
		t.Fatal(err)
	}
	if err := s.Adaptation.ExecuteProcessAction(ctx, inst.ID(), policy.AdjustTimeoutAction{}); err == nil {
		t.Fatal("AdjustTimeout without activity succeeded")
	}
	if err := s.Adaptation.ExecuteProcessAction(ctx, inst.ID(), policy.RemoveActivityAction{Activity: "MarketCompliance"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Adaptation.ExecuteProcessAction(ctx, inst.ID(), policy.TerminateProcessAction{}); err != nil {
		t.Fatal(err)
	}
	if st, _ := inst.Wait(time.Second); st != workflow.StateTerminated {
		t.Fatalf("state = %s", st)
	}

	if err := s.Adaptation.ExecuteProcessAction(ctx, "", policy.SuspendProcessAction{}); err == nil {
		t.Fatal("empty instance ID accepted")
	}
	if err := s.Adaptation.ExecuteProcessAction(ctx, "proc-999", policy.SuspendProcessAction{}); !errors.Is(err, workflow.ErrUnknownInstance) {
		t.Fatalf("err = %v", err)
	}
}

func TestDelayProcessAction(t *testing.T) {
	s, _ := tradingStack(t, "")
	inst, err := s.Engine.CreateInstance("TradingProcess", domesticOrder(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.Adaptation.ExecuteProcessAction(context.Background(), inst.ID(), policy.DelayProcessAction{Duration: 30 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	st, err := inst.Wait(5 * time.Second)
	if err != nil || st != workflow.StateCompleted {
		t.Fatalf("state=%s err=%v", st, err)
	}
}

func TestAdaptationStateRoundTrip(t *testing.T) {
	s, _ := tradingStack(t, "")
	inst, _ := s.Engine.CreateInstance("TradingProcess", domesticOrder(t))
	defer inst.Terminate()

	if state, ok := s.Adaptation.AdaptationState(inst.ID()); !ok || state != "" {
		t.Fatalf("initial state = %q ok=%v", state, ok)
	}
	s.Adaptation.SetAdaptationState(inst.ID(), "custom")
	if state, _ := s.Adaptation.AdaptationState(inst.ID()); state != "custom" {
		t.Fatalf("state = %q", state)
	}
	if _, ok := s.Adaptation.AdaptationState("ghost"); ok {
		t.Fatal("unknown instance reported state")
	}
}

func TestVariationLibrary(t *testing.T) {
	s, f := tradingStack(t, `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="var">
  <AdaptationPolicy name="use-variation" subject="TradingProcess" kind="customization" layer="process" priority="5">
    <OnEvent type="process.started"/>
    <Actions>
      <AddActivity anchor="Trade" position="before" variationRef="ccFragment">
        <Bind from="order" to="ccInput"/>
      </AddActivity>
    </Actions>
  </AdaptationPolicy>
</PolicyDocument>`)
	err := s.Adaptation.RegisterVariationXML("ccFragment",
		`<invoke name="CC" endpoint="inproc://currency" operation="convert" input="ccInput"/>`)
	if err != nil {
		t.Fatal(err)
	}
	runToCompletion(t, s, domesticOrder(t))
	if !strings.Contains(strings.Join(f.calls(), ","), "inproc://currency convert") {
		t.Fatalf("variation not executed: %v", f.calls())
	}
}

func TestUnknownVariationFailsGracefully(t *testing.T) {
	s, f := tradingStack(t, `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="var">
  <AdaptationPolicy name="use-missing" subject="TradingProcess" kind="customization" layer="process" priority="5">
    <OnEvent type="process.started"/>
    <Actions>
      <AddActivity anchor="Trade" position="before" variationRef="ghost"/>
    </Actions>
  </AdaptationPolicy>
</PolicyDocument>`)
	var rec event.Recorder
	rec.Attach(s.Events)
	// The instance still runs the base process despite the failed
	// customization.
	runToCompletion(t, s, domesticOrder(t))
	if len(f.calls()) != 4 {
		t.Fatalf("base process disturbed: %v", f.calls())
	}
	failed := false
	for _, ev := range rec.OfType(event.TypeAdaptationCompleted) {
		if strings.Contains(ev.Detail, "failed") {
			failed = true
		}
	}
	if !failed {
		t.Fatal("failed customization not reported")
	}
}

func TestLedgerDirectBooking(t *testing.T) {
	l := NewLedger()
	l.Book(LedgerEntry{Amount: 10, Currency: "AUD"})
	l.Book(LedgerEntry{Amount: -4, Currency: "AUD"})
	l.Book(LedgerEntry{Amount: 7, Currency: "USD"})
	if got := l.Total("AUD"); got != 6 {
		t.Fatalf("AUD total = %v", got)
	}
	if got := l.Total("USD"); got != 7 {
		t.Fatalf("USD total = %v", got)
	}
	if got := l.Total("EUR"); got != 0 {
		t.Fatalf("EUR total = %v", got)
	}
	if len(l.Entries()) != 3 {
		t.Fatalf("entries = %d", len(l.Entries()))
	}
}

func TestLedgerIgnoresMalformedEvents(t *testing.T) {
	l := NewLedger()
	bus := event.NewBus()
	un := l.Attach(bus)
	defer un()
	bus.Publish(event.Event{Type: event.TypeAdaptationCompleted}) // no data
	bus.Publish(event.Event{Type: event.TypeAdaptationCompleted,
		Data: map[string]string{"businessValueAmount": "not-a-number"}})
	if len(l.Entries()) != 0 {
		t.Fatalf("entries = %d", len(l.Entries()))
	}
}

func busVEPConfig(name string, services ...string) busVEPCfg {
	return busVEPCfg{Name: name, Services: services}
}

// TestProcessScopedCorrectivePolicy covers the DecisionMaker's fault
// path: a policy scoped to the process definition (not a VEP) reacts
// to a fault event by terminating the instance — "relatively simple
// dynamic changes of process instances (e.g., ... terminate process)"
// at the process layer (§3).
func TestProcessScopedCorrectivePolicy(t *testing.T) {
	f := newFakeServices()
	f.add("inproc://ok", nil)
	f.net.Register("inproc://dead", transport.HandlerFunc(
		func(context.Context, *soap.Envelope) (*soap.Envelope, error) {
			return nil, &transport.UnavailableError{Endpoint: "inproc://dead", Reason: "gone"}
		}))
	s := NewStack(f.net)
	t.Cleanup(s.Close)
	if err := s.LoadPolicies(`
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="proc-corrective">
  <AdaptationPolicy name="abort-on-unavailable" subject="P" priority="5" layer="process">
    <OnEvent type="fault.detected" faultType="ServiceUnavailableFault"/>
    <Actions><TerminateProcess/></Actions>
  </AdaptationPolicy>
</PolicyDocument>`); err != nil {
		t.Fatal(err)
	}
	// The dead service sits behind a VEP with no recovery policy, so
	// the fault event reaches the decision maker with the instance
	// correlation intact.
	if _, err := s.Bus.CreateVEP(busVEPConfig("Dead", "inproc://dead")); err != nil {
		t.Fatal(err)
	}

	def, err := workflow.ParseDefinitionString(`
<process xmlns="urn:masc:workflow" name="P">
  <sequence name="main">
    <invoke name="CallDead" endpoint="vep:Dead" operation="op" timeout="5s"/>
    <invoke name="Never" endpoint="inproc://ok" operation="op2" timeout="5s"/>
  </sequence>
</process>`)
	if err != nil {
		t.Fatal(err)
	}
	s.Engine.Deploy(def)
	inst, err := s.Engine.Start("P", nil)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := inst.Wait(5 * time.Second)
	if st != workflow.StateTerminated {
		t.Fatalf("state = %s, want terminated by policy", st)
	}
	for _, c := range f.calls() {
		if strings.Contains(c, "op2") {
			t.Fatalf("activity after termination ran: %v", f.calls())
		}
	}
}

func TestStackOptions(t *testing.T) {
	f := newFakeServices()
	repo := policy.NewRepository()
	fc := clockFake()
	s := NewStack(f.net,
		WithClock(fc),
		WithPolicyRepository(repo),
		WithSeed(99),
	)
	t.Cleanup(s.Close)
	if s.Policies != repo {
		t.Fatal("repository option ignored")
	}
	if s.Clock() != fc {
		t.Fatal("clock option ignored")
	}
	if s.Registry == nil {
		t.Fatal("registry not defaulted")
	}
}

// TestMixedActionPolicyDispatch exercises a dynamic policy combining
// lifecycle and structural actions: suspend, insert, resume — executed
// in declaration order by the decision maker.
func TestMixedActionPolicyDispatch(t *testing.T) {
	s, f := tradingStack(t, `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="mixed">
  <AdaptationPolicy name="suspend-insert-resume" subject="TradingProcess" kind="customization" layer="process" priority="5">
    <OnEvent type="message.intercepted"/>
    <StateBefore></StateBefore>
    <StateAfter>patched</StateAfter>
    <Actions>
      <SuspendProcess/>
      <AddActivity anchor="Trade" position="before">
        <Activity><invoke name="Inserted" endpoint="inproc://pest" operation="assess" input="order"/></Activity>
      </AddActivity>
      <ResumeProcess/>
    </Actions>
  </AdaptationPolicy>
</PolicyDocument>`)
	if _, err := s.Bus.CreateVEP(busVEPConfig("VFund", "inproc://fundmanager")); err != nil {
		t.Fatal(err)
	}
	if err := s.Bus.Proxy("inproc://fundmanager", "VFund"); err != nil {
		t.Fatal(err)
	}
	inst, _ := runToCompletion(t, s, domesticOrder(t))
	if inst.AdaptationState() != "patched" {
		t.Fatalf("state = %q", inst.AdaptationState())
	}
	if !strings.Contains(strings.Join(f.calls(), ","), "pest assess") {
		t.Fatalf("inserted activity never ran: %v", f.calls())
	}
}

// TestBindingWithExpressionSource covers compileVarPath's expression
// form: a Bind whose from is a full XPath, not a bare variable name.
func TestBindingWithExpressionSource(t *testing.T) {
	s, f := tradingStack(t, `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="exprbind">
  <AdaptationPolicy name="bind-expression" subject="TradingProcess" kind="customization" layer="process" priority="5">
    <OnEvent type="process.started"/>
    <Actions>
      <AddActivity anchor="Trade" position="before" variationRef="echoAmount">
        <Bind from="//order/placeOrder/Amount" to="amountOnly"/>
      </AddActivity>
    </Actions>
  </AdaptationPolicy>
</PolicyDocument>`)
	err := s.Adaptation.RegisterVariationXML("echoAmount",
		`<invoke name="EchoAmount" endpoint="inproc://pest" operation="assess" input="amountOnly"/>`)
	if err != nil {
		t.Fatal(err)
	}
	runToCompletion(t, s, internationalOrder(t, "777"))
	if !strings.Contains(strings.Join(f.calls(), ","), "pest assess") {
		t.Fatalf("expression-bound variation never ran: %v", f.calls())
	}
}

// TestBrokenInlineSpecFailsGracefully covers buildUpdate's parse-error
// path: a policy whose inline activity spec is invalid must not break
// the base process.
func TestBrokenInlineSpecFailsGracefully(t *testing.T) {
	s, f := tradingStack(t, `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="broken">
  <AdaptationPolicy name="bad-spec" subject="TradingProcess" kind="customization" layer="process" priority="5">
    <OnEvent type="process.started"/>
    <Actions>
      <AddActivity anchor="Trade" position="before">
        <Activity><invoke name="NoOperation" endpoint="x"/></Activity>
      </AddActivity>
    </Actions>
  </AdaptationPolicy>
</PolicyDocument>`)
	runToCompletion(t, s, domesticOrder(t))
	if len(f.calls()) != 4 {
		t.Fatalf("base process disturbed by broken spec: %v", f.calls())
	}
}

// TestCrossLayerResumeAfterRecovery is the regression test for the
// suspend-without-resume hazard: a cross-layer policy whose Retry
// succeeds must STILL execute its trailing ResumeProcess, or the
// instance stays parked at its next activity forever.
func TestCrossLayerResumeAfterRecovery(t *testing.T) {
	f := newFakeServices()
	var calls int
	var mu sync.Mutex
	f.net.Register("inproc://market", transport.HandlerFunc(func(_ context.Context, req *soap.Envelope) (*soap.Envelope, error) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n == 1 {
			return nil, &transport.UnavailableError{Endpoint: "inproc://market", Reason: "blip"}
		}
		return soap.NewRequest(xmltree.New("urn:t", "executeTradeResponse")), nil
	}))
	f.add("inproc://after", nil)

	s := NewStack(f.net)
	t.Cleanup(s.Close)
	if err := s.LoadPolicies(`
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="xl">
  <AdaptationPolicy name="suspend-retry-resume" subject="vep:Market" priority="5" layer="both">
    <OnEvent type="fault.detected"/>
    <Actions>
      <SuspendProcess/>
      <Retry maxAttempts="2" delay="1ms"/>
      <ResumeProcess/>
    </Actions>
  </AdaptationPolicy>
</PolicyDocument>`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Bus.CreateVEP(busVEPConfig("Market", "inproc://market")); err != nil {
		t.Fatal(err)
	}
	def, err := workflow.ParseDefinitionString(`
<process xmlns="urn:masc:workflow" name="P2">
  <sequence name="main">
    <invoke name="Trade" endpoint="vep:Market" operation="executeTrade" timeout="5s"/>
    <invoke name="AfterTrade" endpoint="inproc://after" operation="confirm" timeout="5s"/>
  </sequence>
</process>`)
	if err != nil {
		t.Fatal(err)
	}
	s.Engine.Deploy(def)
	inst, err := s.Engine.Start("P2", nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := inst.Wait(5 * time.Second)
	if err != nil || st != workflow.StateCompleted {
		t.Fatalf("state=%s err=%v (instance stuck suspended after recovery?)", st, err)
	}
	if !strings.Contains(strings.Join(f.calls(), ","), "confirm") {
		t.Fatalf("post-recovery activity never ran: %v", f.calls())
	}
}

func TestHistoryConditionGatesDynamicCustomization(t *testing.T) {
	// A customization that must only fire once an instance has
	// exchanged at least 3 messages ($instanceMessageCount): the
	// paper's multi-message pre-condition.
	s, f := tradingStack(t, `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="hist">
  <AdaptationPolicy name="after-two-messages" subject="TradingProcess" kind="customization" layer="process" priority="5">
    <OnEvent type="message.intercepted"/>
    <Condition>$instanceMessageCount >= 3</Condition>
    <StateBefore></StateBefore>
    <StateAfter>history-triggered</StateAfter>
    <Actions>
      <AddActivity position="atEnd">
        <Activity><invoke name="Extra" endpoint="inproc://pest" operation="assess" input="order"/></Activity>
      </AddActivity>
    </Actions>
  </AdaptationPolicy>
</PolicyDocument>`)

	// Proxy two services through VEPs so their messages are observed.
	for i, addr := range []string{"inproc://fundmanager", "inproc://analysis"} {
		name := []string{"VFund", "VAnalysis"}[i]
		if _, err := s.Bus.CreateVEP(busVEPConfig(name, addr)); err != nil {
			t.Fatal(err)
		}
		if err := s.Bus.Proxy(addr, name); err != nil {
			t.Fatal(err)
		}
	}
	inst, _ := runToCompletion(t, s, domesticOrder(t))
	if inst.AdaptationState() != "history-triggered" {
		t.Fatalf("state = %q; history condition never satisfied", inst.AdaptationState())
	}
	found := false
	for _, c := range f.calls() {
		if strings.Contains(c, "pest assess") {
			found = true
		}
	}
	if !found {
		t.Fatalf("history-gated activity never ran: %v", f.calls())
	}
}
