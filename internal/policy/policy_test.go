package policy

import (
	"errors"
	"testing"
	"time"

	"github.com/masc-project/masc/internal/event"
)

// FullDoc exposes fullDoc to the external test package, whose
// repository tests dispatch through internal/policy/compile.
const FullDoc = fullDoc

// fullDoc exercises every construct the language supports.
const fullDoc = `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="scm-policies">
  <MonitoringPolicy name="retailer-monitor" subject="vep:Retailer" operation="getCatalog" validateContract="true">
    <PreCondition name="has-category" faultType="ServiceFailureFault">//getCatalog/category != ''</PreCondition>
    <PostCondition name="has-items">count(//Item) > 0</PostCondition>
    <QoSThreshold name="rt" metric="responseTime" maxResponse="2s" minSamples="5"/>
    <QoSThreshold metric="reliability" min="0.95" faultType="SLAViolationFault"/>
    <QoSThreshold metric="availability" min="0.99"/>
  </MonitoringPolicy>

  <AdaptationPolicy name="retry-then-failover" subject="vep:Retailer" priority="10" kind="correction" layer="messaging">
    <OnEvent type="fault.detected" faultType="TimeoutFault"/>
    <Actions>
      <Retry maxAttempts="3" delay="2s" backoff="fixed"/>
      <Substitute selection="bestResponseTime" maxAlternatives="2"/>
    </Actions>
    <BusinessValue amount="-5" currency="AUD" reason="SLA penalty avoided"/>
  </AdaptationPolicy>

  <AdaptationPolicy name="skip-logging" subject="vep:Logging" priority="1" kind="correction">
    <OnEvent type="fault.detected"/>
    <Actions><Skip/></Actions>
  </AdaptationPolicy>

  <AdaptationPolicy name="add-currency-conversion" subject="TradingProcess" priority="5" kind="customization" layer="process">
    <OnEvent type="message.intercepted"/>
    <Condition>//PlaceOrder/Market != 'domestic'</Condition>
    <StateBefore>base</StateBefore>
    <StateAfter>international</StateAfter>
    <Actions>
      <AddActivity anchor="VerifyOrder" position="after">
        <Bind from="orderAmount" to="amount"/>
        <Bind from="converted" to="orderAmount" direction="out"/>
        <Activity>
          <invoke name="ConvertCurrency" serviceType="CurrencyConversion" operation="convert"/>
        </Activity>
      </AddActivity>
      <RemoveActivity activity="MarketCompliance"/>
    </Actions>
  </AdaptationPolicy>

  <AdaptationPolicy name="cross-layer-retry" subject="vep:Warehouse" priority="7" kind="correction" layer="both">
    <OnEvent type="fault.detected" faultType="TimeoutFault"/>
    <Actions>
      <SuspendProcess/>
      <AdjustTimeout activity="CallWarehouse" newTimeout="30s"/>
      <Retry maxAttempts="2" delay="1s" backoff="exponential"/>
      <ResumeProcess/>
    </Actions>
  </AdaptationPolicy>

  <AdaptationPolicy name="broadcast-search" subject="vep:Search" priority="3" kind="optimization" layer="messaging">
    <OnEvent type="sla.violation"/>
    <Actions>
      <ConcurrentInvoke maxTargets="4"/>
    </Actions>
  </AdaptationPolicy>

  <AdaptationPolicy name="delay-and-terminate" subject="P" priority="2" kind="correction" layer="process">
    <OnEvent type="fault.detected" faultType="ServiceFailureFault"/>
    <Actions>
      <DelayProcess duration="5s"/>
      <TerminateProcess/>
    </Actions>
  </AdaptationPolicy>
</PolicyDocument>`

func parseFull(t *testing.T) *Document {
	t.Helper()
	d, err := ParseString(fullDoc)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestParseFullDocument(t *testing.T) {
	d := parseFull(t)
	if d.Name != "scm-policies" {
		t.Fatalf("name = %q", d.Name)
	}
	if len(d.Monitoring) != 1 || len(d.Adaptation) != 6 {
		t.Fatalf("policies = %d/%d", len(d.Monitoring), len(d.Adaptation))
	}

	mp := d.Monitoring[0]
	if !mp.ValidateContract {
		t.Fatal("validateContract lost")
	}
	if len(mp.PreConditions) != 1 || len(mp.PostConditions) != 1 || len(mp.Thresholds) != 3 {
		t.Fatalf("monitor contents = %d/%d/%d", len(mp.PreConditions), len(mp.PostConditions), len(mp.Thresholds))
	}
	if mp.Thresholds[0].MaxResponse != 2*time.Second || mp.Thresholds[0].MinSamples != 5 {
		t.Fatalf("threshold = %+v", mp.Thresholds[0])
	}
	if mp.Thresholds[1].MinValue != 0.95 {
		t.Fatalf("reliability min = %v", mp.Thresholds[1].MinValue)
	}
	if mp.PreConditions[0].FaultType != "ServiceFailureFault" {
		t.Fatalf("pre faultType = %q", mp.PreConditions[0].FaultType)
	}
	// Default fault type for post condition.
	if mp.PostConditions[0].FaultType != "ServiceFailureFault" {
		t.Fatalf("default faultType = %q", mp.PostConditions[0].FaultType)
	}
}

func TestParseRetryFailover(t *testing.T) {
	d := parseFull(t)
	var ap *AdaptationPolicy
	for _, p := range d.Adaptation {
		if p.Name == "retry-then-failover" {
			ap = p
		}
	}
	if ap == nil {
		t.Fatal("policy missing")
	}
	if ap.Priority != 10 || ap.Kind != KindCorrection || ap.Layer != LayerMessaging {
		t.Fatalf("meta = %+v", ap)
	}
	if ap.Trigger.EventType != event.TypeFaultDetected || ap.Trigger.FaultType != "TimeoutFault" {
		t.Fatalf("trigger = %+v", ap.Trigger)
	}
	if len(ap.Actions) != 2 {
		t.Fatalf("actions = %d", len(ap.Actions))
	}
	retry, ok := ap.Actions[0].(RetryAction)
	if !ok || retry.MaxAttempts != 3 || retry.Delay != 2*time.Second || retry.Backoff != BackoffFixed {
		t.Fatalf("retry = %+v", ap.Actions[0])
	}
	sub, ok := ap.Actions[1].(SubstituteAction)
	if !ok || sub.Selection != SelectBestResponseTime || sub.MaxAlternatives != 2 {
		t.Fatalf("substitute = %+v", ap.Actions[1])
	}
	if ap.BusinessValue == nil || ap.BusinessValue.Amount != -5 || ap.BusinessValue.Currency != "AUD" {
		t.Fatalf("business value = %+v", ap.BusinessValue)
	}
}

func TestParseCustomization(t *testing.T) {
	d := parseFull(t)
	var ap *AdaptationPolicy
	for _, p := range d.Adaptation {
		if p.Name == "add-currency-conversion" {
			ap = p
		}
	}
	if ap == nil {
		t.Fatal("policy missing")
	}
	if ap.Condition == nil {
		t.Fatal("condition lost")
	}
	if ap.StateBefore != "base" || ap.StateAfter != "international" {
		t.Fatalf("states = %q/%q", ap.StateBefore, ap.StateAfter)
	}
	add, ok := ap.Actions[0].(AddActivityAction)
	if !ok {
		t.Fatalf("action 0 = %T", ap.Actions[0])
	}
	if add.Anchor != "VerifyOrder" || add.Position != PositionAfter {
		t.Fatalf("add = %+v", add)
	}
	if add.ActivitySpec == nil || add.ActivitySpec.Name.Local != "invoke" {
		t.Fatalf("spec = %v", add.ActivitySpec)
	}
	if len(add.Bindings) != 2 || add.Bindings[0].Direction != "in" || add.Bindings[1].Direction != "out" {
		t.Fatalf("bindings = %+v", add.Bindings)
	}
	rm, ok := ap.Actions[1].(RemoveActivityAction)
	if !ok || rm.Activity != "MarketCompliance" {
		t.Fatalf("remove = %+v", ap.Actions[1])
	}
}

func TestLayerInference(t *testing.T) {
	d := MustParseString(`
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="t">
  <AdaptationPolicy name="p" kind="correction">
    <OnEvent type="fault.detected"/>
    <Actions><Retry maxAttempts="1"/><SuspendProcess/><ResumeProcess/></Actions>
  </AdaptationPolicy>
</PolicyDocument>`)
	if d.Adaptation[0].Layer != LayerBoth {
		t.Fatalf("inferred layer = %q, want both", d.Adaptation[0].Layer)
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name string
		doc  string
	}{
		{"not xml", "garbage"},
		{"wrong root", `<Other xmlns="urn:masc:ws-policy4masc" name="x"/>`},
		{"no doc name", `<PolicyDocument xmlns="urn:masc:ws-policy4masc"/>`},
		{"unknown element", `<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="x"><Bogus/></PolicyDocument>`},
		{"monitor no name", `<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="x"><MonitoringPolicy/></PolicyDocument>`},
		{"bad xpath", `<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="x">
			<MonitoringPolicy name="m"><PreCondition>//a[</PreCondition></MonitoringPolicy></PolicyDocument>`},
		{"empty assertion", `<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="x">
			<MonitoringPolicy name="m"><PreCondition/></MonitoringPolicy></PolicyDocument>`},
		{"bad metric", `<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="x">
			<MonitoringPolicy name="m"><QoSThreshold metric="jitter" min="0.5"/></MonitoringPolicy></PolicyDocument>`},
		{"rt without max", `<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="x">
			<MonitoringPolicy name="m"><QoSThreshold metric="responseTime"/></MonitoringPolicy></PolicyDocument>`},
		{"reliability out of range", `<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="x">
			<MonitoringPolicy name="m"><QoSThreshold metric="reliability" min="1.5"/></MonitoringPolicy></PolicyDocument>`},
		{"adaptation no name", `<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="x">
			<AdaptationPolicy><OnEvent type="fault.detected"/><Actions><Skip/></Actions></AdaptationPolicy></PolicyDocument>`},
		{"no trigger", `<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="x">
			<AdaptationPolicy name="p"><Actions><Skip/></Actions></AdaptationPolicy></PolicyDocument>`},
		{"no actions", `<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="x">
			<AdaptationPolicy name="p"><OnEvent type="fault.detected"/></AdaptationPolicy></PolicyDocument>`},
		{"unknown action", `<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="x">
			<AdaptationPolicy name="p"><OnEvent type="fault.detected"/><Actions><Reboot/></Actions></AdaptationPolicy></PolicyDocument>`},
		{"bad kind", `<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="x">
			<AdaptationPolicy name="p" kind="magical"><OnEvent type="fault.detected"/><Actions><Skip/></Actions></AdaptationPolicy></PolicyDocument>`},
		{"bad backoff", `<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="x">
			<AdaptationPolicy name="p"><OnEvent type="fault.detected"/><Actions><Retry backoff="linear"/></Actions></AdaptationPolicy></PolicyDocument>`},
		{"bad selection", `<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="x">
			<AdaptationPolicy name="p"><OnEvent type="fault.detected"/><Actions><Substitute selection="psychic"/></Actions></AdaptationPolicy></PolicyDocument>`},
		{"add without anchor", `<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="x">
			<AdaptationPolicy name="p" kind="customization"><OnEvent type="process.started"/>
			<Actions><AddActivity position="after"><Activity><invoke name="i"/></Activity></AddActivity></Actions></AdaptationPolicy></PolicyDocument>`},
		{"add without spec", `<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="x">
			<AdaptationPolicy name="p" kind="customization"><OnEvent type="process.started"/>
			<Actions><AddActivity anchor="a" position="after"/></Actions></AdaptationPolicy></PolicyDocument>`},
		{"remove without activity", `<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="x">
			<AdaptationPolicy name="p"><OnEvent type="fault.detected"/><Actions><RemoveActivity/></Actions></AdaptationPolicy></PolicyDocument>`},
		{"bad bind direction", `<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="x">
			<AdaptationPolicy name="p" kind="customization"><OnEvent type="process.started"/>
			<Actions><AddActivity anchor="a" position="after" variationRef="v"><Bind from="x" to="y" direction="sideways"/></AddActivity></Actions></AdaptationPolicy></PolicyDocument>`},
		{"bad delay duration", `<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="x">
			<AdaptationPolicy name="p"><OnEvent type="fault.detected"/><Actions><DelayProcess duration="fortnight"/></Actions></AdaptationPolicy></PolicyDocument>`},
		{"bad business value", `<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="x">
			<AdaptationPolicy name="p"><OnEvent type="fault.detected"/><Actions><Skip/></Actions>
			<BusinessValue amount="lots"/></AdaptationPolicy></PolicyDocument>`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ParseString(tt.doc); err == nil {
				t.Fatalf("parse succeeded, want error")
			} else if !errors.Is(err, ErrParse) {
				t.Fatalf("err = %v, want ErrParse", err)
			}
		})
	}
}

func TestRoundTrip(t *testing.T) {
	d := parseFull(t)
	text, err := d.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseString(text)
	if err != nil {
		t.Fatalf("re-parse: %v\ndocument:\n%s", err, text)
	}
	if back.Name != d.Name || len(back.Monitoring) != len(d.Monitoring) || len(back.Adaptation) != len(d.Adaptation) {
		t.Fatalf("round trip changed structure")
	}
	// Spot-check a few deep fields.
	if back.Monitoring[0].Thresholds[0].MaxResponse != 2*time.Second {
		t.Fatal("threshold lost in round trip")
	}
	for i, ap := range d.Adaptation {
		b := back.Adaptation[i]
		if b.Name != ap.Name || b.Priority != ap.Priority || b.Kind != ap.Kind || b.Layer != ap.Layer {
			t.Fatalf("policy %d meta changed: %+v vs %+v", i, b, ap)
		}
		if len(b.Actions) != len(ap.Actions) {
			t.Fatalf("policy %s action count changed", ap.Name)
		}
		for j := range ap.Actions {
			if b.Actions[j].ActionName() != ap.Actions[j].ActionName() {
				t.Fatalf("policy %s action %d changed type", ap.Name, j)
			}
		}
	}
	if back.Adaptation[0].Condition != nil {
		t.Fatal("unexpected condition appeared")
	}
}

func TestScopeMatching(t *testing.T) {
	tests := []struct {
		scope     Scope
		subject   string
		operation string
		want      bool
	}{
		{Scope{}, "anything", "op", true},
		{Scope{Subject: "vep:R"}, "vep:R", "op", true},
		{Scope{Subject: "vep:R"}, "vep:S", "op", false},
		{Scope{Subject: "vep:R", Operation: "get"}, "vep:R", "get", true},
		{Scope{Subject: "vep:R", Operation: "get"}, "vep:R", "put", false},
		{Scope{Subject: "vep:R", Operation: "get"}, "vep:R", "", true}, // unknown op matches
	}
	for i, tt := range tests {
		if got := tt.scope.Matches(tt.subject, tt.operation); got != tt.want {
			t.Errorf("case %d: Matches(%q,%q) = %v, want %v", i, tt.subject, tt.operation, got, tt.want)
		}
	}
}

func TestTriggerMatching(t *testing.T) {
	tr := Trigger{EventType: event.TypeFaultDetected, FaultType: "TimeoutFault"}
	if !tr.Matches(event.Event{Type: event.TypeFaultDetected, FaultType: "TimeoutFault"}) {
		t.Fatal("exact match failed")
	}
	if tr.Matches(event.Event{Type: event.TypeFaultDetected, FaultType: "OtherFault"}) {
		t.Fatal("fault type mismatch matched")
	}
	if tr.Matches(event.Event{Type: event.TypeSLAViolation, FaultType: "TimeoutFault"}) {
		t.Fatal("event type mismatch matched")
	}
	anyFault := Trigger{EventType: event.TypeFaultDetected}
	if !anyFault.Matches(event.Event{Type: event.TypeFaultDetected, FaultType: "Whatever"}) {
		t.Fatal("wildcard fault type failed")
	}
}
