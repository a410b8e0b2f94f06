package core

import (
	"fmt"
	"testing"
	"time"

	"github.com/masc-project/masc/internal/event"
	"github.com/masc-project/masc/internal/telemetry"
	"github.com/masc-project/masc/internal/telemetry/decision"
	"github.com/masc-project/masc/internal/workflow"
)

// ecaStack is a trading stack with telemetry and a decision recorder,
// one policy document loaded, and an event recorder attached.
func ecaStack(t *testing.T, policies string) (*Stack, *decision.Recorder, *event.Recorder) {
	t.Helper()
	f := newFakeServices()
	tel := telemetry.New(0)
	rec := decision.NewRecorder(64, tel.Registry())
	s := NewStack(f.net, WithTelemetry(tel), WithDecisionRecorder(rec))
	t.Cleanup(s.Close)
	if err := s.LoadPolicies(policies); err != nil {
		t.Fatal(err)
	}
	def, err := workflow.ParseDefinitionString(baseTradingXML)
	if err != nil {
		t.Fatal(err)
	}
	s.Engine.Deploy(def)
	var events event.Recorder
	events.Attach(s.Events)
	return s, rec, &events
}

// processPolicy is one process-layer policy on TradingProcess that
// raises Analyze's timeout and moves the instance to state "tuned".
func processPolicy(trigger, condition, activity string) string {
	kind := "customization"
	if trigger == string(event.TypeFaultDetected) {
		kind = "correction"
	}
	return fmt.Sprintf(`
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="eca">
  <AdaptationPolicy name="tune" subject="TradingProcess" kind="%s" layer="process" priority="5">
    <OnEvent type="%s"/>
    <Condition>%s</Condition>
    <StateAfter>tuned</StateAfter>
    <Actions><AdjustTimeout activity="%s" newTimeout="7s"/></Actions>
    <BusinessValue amount="3" currency="AUD" reason="tuned"/>
  </AdaptationPolicy>
</PolicyDocument>`, kind, trigger, condition, activity)
}

// onlyRecord returns the single decision record, or fails.
func onlyRecord(t *testing.T, rec *decision.Recorder) decision.Record {
	t.Helper()
	rs := rec.Records(decision.Query{})
	if len(rs) != 1 {
		t.Fatalf("decision records = %+v, want one", rs)
	}
	return rs[0]
}

// TestProcessSitesBindEveryConditionVariable: at both process-layer
// sites — static customization on process.started and the decision
// maker on fault.detected — a condition on each of the six adaptation
// variables evaluates to the value the trigger carries (or the empty
// value the site has none for) instead of failing as condition_error.
func TestProcessSitesBindEveryConditionVariable(t *testing.T) {
	static := map[string]string{
		"faultType":            "$faultType = ''",
		"target":               "$target = ''",
		"operation":            "$operation = ''",
		"instanceID":           "starts-with($instanceID, 'proc-')",
		"state":                "$state = ''",
		"instanceMessageCount": "$instanceMessageCount = 0",
	}
	for variable, cond := range static {
		s, rec, _ := ecaStack(t, processPolicy("process.started", cond, "Analyze"))
		inst, err := s.Engine.CreateInstance("TradingProcess", domesticOrder(t))
		if err != nil {
			t.Fatal(err)
		}
		if r := onlyRecord(t, rec); r.Verdict != decision.VerdictMatched || inst.AdaptationState() != "tuned" {
			t.Errorf("static $%s: record %+v, state %q; want matched and tuned", variable, r, inst.AdaptationState())
		}
	}

	dynamic := map[string]string{
		"faultType":            "$faultType = 'F'",
		"target":               "$target = 'inproc://t'",
		"operation":            "$operation = 'op'",
		"instanceID":           "starts-with($instanceID, 'proc-')",
		"state":                "$state = ''",
		"instanceMessageCount": "$instanceMessageCount = 0",
	}
	for variable, cond := range dynamic {
		s, rec, _ := ecaStack(t, processPolicy("fault.detected", cond, "Analyze"))
		inst, err := s.Engine.CreateInstance("TradingProcess", domesticOrder(t))
		if err != nil {
			t.Fatal(err)
		}
		s.Events.Publish(event.Event{Type: event.TypeFaultDetected, ProcessInstanceID: inst.ID(),
			FaultType: "F", Operation: "op", Data: map[string]string{"target": "inproc://t"}})
		if r := onlyRecord(t, rec); r.Verdict != decision.VerdictMatched || inst.AdaptationState() != "tuned" {
			t.Errorf("decision maker $%s: record %+v, state %q; want matched and tuned", variable, r, inst.AdaptationState())
		}
	}
}

// TestStaticCustomizationRunsNonStructuralActions: a process.started
// policy whose only action is AdjustTimeout runs it through the same
// process executor as the decision maker, applies StateAfter, books its
// business value, and leaves a decision record. Before, the action was
// dropped while the policy was reported applied. An action that fails
// gives an error record, a failure event and no booking.
func TestStaticCustomizationRunsNonStructuralActions(t *testing.T) {
	s, rec, events := ecaStack(t, processPolicy("process.started", "true()", "Analyze"))
	inst, err := s.Engine.CreateInstance("TradingProcess", domesticOrder(t))
	if err != nil {
		t.Fatal(err)
	}
	analyze := workflow.FindActivity(inst.TreeCopy(), "Analyze").(*workflow.Invoke)
	if inst.AdaptationState() != "tuned" || analyze.Timeout() != 7*time.Second {
		t.Fatalf("state %q, Analyze timeout %v; want tuned and 7s", inst.AdaptationState(), analyze.Timeout())
	}
	r := onlyRecord(t, rec)
	if r.Site != decision.SiteDecision || r.Trigger != string(event.TypeProcessStarted) ||
		r.Verdict != decision.VerdictMatched || r.Action != "AdjustTimeout" || r.Instance != inst.ID() {
		t.Fatalf("record = %+v", r)
	}
	if adapts := events.OfType(event.TypeAdaptationCompleted); len(adapts) != 1 ||
		adapts[0].Detail != "static customization applied" || s.Ledger.Total("AUD") != 3 {
		t.Fatalf("adaptation events = %+v, ledger %v", adapts, s.Ledger.Total("AUD"))
	}

	s, rec, events = ecaStack(t, processPolicy("process.started", "true()", "NoSuchActivity"))
	inst, err = s.Engine.CreateInstance("TradingProcess", domesticOrder(t))
	if err != nil {
		t.Fatal(err)
	}
	if r := onlyRecord(t, rec); r.Verdict != decision.VerdictError || inst.AdaptationState() != "" {
		t.Fatalf("record = %+v, state %q; want an error record and no state change", r, inst.AdaptationState())
	}
	for _, e := range events.OfType(event.TypeAdaptationCompleted) {
		if e.Detail == "static customization applied" {
			t.Fatalf("failed customization reported applied: %+v", e)
		}
	}
	if s.Ledger.Total("AUD") != 0 {
		t.Fatalf("failed customization booked %v", s.Ledger.Total("AUD"))
	}
}

// TestProcessSitesAllocateNothingWithoutCandidates: with no policy the
// trigger selects, static customization and the decision maker on
// message.intercepted — which proc_durable reaches on every request —
// allocate nothing, as before they ran the shared ECA loop.
func TestProcessSitesAllocateNothingWithoutCandidates(t *testing.T) {
	s, _, _ := ecaStack(t, differentialPolicies)
	inst, err := s.Engine.CreateInstance("TradingProcess", domesticOrder(t))
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { s.Adaptation.InstanceCreated(inst) }); n != 0 {
		t.Errorf("static customization without candidates: %.0f allocations, want 0", n)
	}
	ev := event.Event{Type: event.TypeMessageIntercepted, ProcessInstanceID: inst.ID(), Operation: "analyze"}
	if n := testing.AllocsPerRun(100, func() { s.Decisions.onEvent(ev) }); n != 0 {
		t.Errorf("decision maker on message.intercepted without candidates: %.0f allocations, want 0", n)
	}
}
