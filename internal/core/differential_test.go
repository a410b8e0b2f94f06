package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/masc-project/masc/internal/policy"
	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/telemetry/decision"
	"github.com/masc-project/masc/internal/transport"
	"github.com/masc-project/masc/internal/workflow"
	"github.com/masc-project/masc/internal/xmltree"
)

// differentialPolicies exercises every evaluation site the compiler
// rewired: monitoring pre/post assertions and QoS thresholds, bus-layer
// recovery with state gates, false conditions, retry and substitution,
// process-layer dispatch with conditions over instance context, and a
// protection policy resolved at VEP creation.
const differentialPolicies = `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="diff-workload">
  <MonitoringPolicy name="svc-messages" subject="vep:Svc" operation="doWork">
    <PreCondition name="amount-present">count(//Amount) &gt; 0</PreCondition>
    <PostCondition name="result-small" faultType="masc:policyViolation">number(//Result) &lt; 100</PostCondition>
    <QoSThreshold name="availability-sla" metric="availability" min="0.999" minSamples="2"/>
  </MonitoringPolicy>
  <AdaptationPolicy name="gated-recovery" subject="vep:Svc" priority="20" kind="correction">
    <OnEvent type="fault.detected"/>
    <StateBefore>escalated</StateBefore>
    <Actions><Skip/></Actions>
  </AdaptationPolicy>
  <AdaptationPolicy name="never-matches" subject="vep:Svc" priority="15" kind="correction">
    <OnEvent type="fault.detected"/>
    <Condition>$faultType = 'no.such.fault'</Condition>
    <Actions><Skip/></Actions>
  </AdaptationPolicy>
  <AdaptationPolicy name="retry-then-switch" subject="vep:Svc" priority="10" kind="correction">
    <OnEvent type="fault.detected"/>
    <Condition>$faultType != '' and $operation = 'doWork'</Condition>
    <Actions>
      <Retry maxAttempts="1"/>
      <Substitute selection="first"/>
    </Actions>
  </AdaptationPolicy>
  <AdaptationPolicy name="proc-react" subject="P" layer="process" priority="8" kind="correction">
    <OnEvent type="fault.detected"/>
    <Condition>$instanceMessageCount &gt;= 0</Condition>
    <Actions><AdjustTimeout activity="Work" newTimeout="5s"/></Actions>
  </AdaptationPolicy>
  <AdaptationPolicy name="proc-gated" subject="P" layer="process" priority="6" kind="correction">
    <OnEvent type="fault.detected"/>
    <StateBefore>escalated</StateBefore>
    <Actions><SuspendProcess/></Actions>
  </AdaptationPolicy>
  <ProtectionPolicy name="svc-guard" subject="vep:Svc">
    <CircuitBreaker failureThreshold="50" cooldown="1s"/>
  </ProtectionPolicy>
</PolicyDocument>`

// runDifferentialWorkload replays one deterministic fixture workload —
// mediated invokes that violate a post-condition, a hard downstream
// failure recovered by substitution, a process run whose fault reaches
// the decision maker, and QoS threshold sweeps — and returns every
// decision-provenance record it produced.
func runDifferentialWorkload(t *testing.T) []decision.Record {
	t.Helper()

	net := transport.NewNetwork()
	var mu sync.Mutex
	echo := func(req *soap.Envelope) *xmltree.Element {
		resp := xmltree.New("urn:t", "doWorkResponse")
		amount := "0"
		if a := req.Payload.Find(func(e *xmltree.Element) bool { return e.Name.Local == "Amount" }); a != nil {
			amount = a.DeepText()
		}
		resp.Append(xmltree.NewText("urn:t", "Result", amount))
		return resp
	}
	// primary echoes //Amount into //Result (large amounts violate the
	// post-condition) and fails outright on Amount=666.
	net.Register("inproc://primary", transport.HandlerFunc(func(_ context.Context, req *soap.Envelope) (*soap.Envelope, error) {
		mu.Lock()
		defer mu.Unlock()
		resp := echo(req)
		if resp.ChildText("urn:t", "Result") == "666" {
			return nil, errors.New("primary exploded")
		}
		return soap.NewRequest(resp), nil
	}))
	// backup always answers with a small, conforming result.
	net.Register("inproc://backup", transport.HandlerFunc(func(_ context.Context, _ *soap.Envelope) (*soap.Envelope, error) {
		mu.Lock()
		defer mu.Unlock()
		resp := xmltree.New("urn:t", "doWorkResponse")
		resp.Append(xmltree.NewText("urn:t", "Result", "1"))
		return soap.NewRequest(resp), nil
	}))

	repo := policy.NewRepository()
	rec := decision.NewRecorder(4096, nil)
	s := NewStack(net,
		WithClock(clockFake()),
		WithPolicyRepository(repo),
		WithDecisionRecorder(rec),
		WithSeed(7))
	t.Cleanup(s.Close)
	if err := s.LoadPolicies(differentialPolicies); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Bus.CreateVEP(busVEPCfg{
		Name:      "Svc",
		Services:  []string{"inproc://primary", "inproc://backup"},
		Selection: policy.SelectFirst,
	}); err != nil {
		t.Fatal(err)
	}

	invoke := func(amount string) {
		payload := xmltree.New("urn:t", "doWork")
		payload.Append(xmltree.NewText("urn:t", "Amount", amount))
		env := soap.NewRequest(payload)
		soap.Addressing{To: "vep:Svc", Action: "doWork"}.Apply(env)
		s.Bus.Invoke(context.Background(), "vep:Svc", env) //nolint:errcheck
	}

	// Phase 1 — mediated invokes: conforming, post-condition violation
	// (retry "recovers" with the same oversized result), hard failure
	// (retry fails, substitution switches to the backup), conforming.
	invoke("5")
	invoke("500")
	invoke("666")
	invoke("7")

	// Phase 2 — a process run whose invoke violates the post-condition:
	// the fault event carries the instance ID, so the decision maker
	// evaluates the process-scoped policies.
	def, err := workflow.ParseDefinitionString(`
<process xmlns="urn:masc:workflow" name="P">
  <variables><variable name="order"/></variables>
  <invoke name="Work" endpoint="vep:Svc" operation="doWork" input="order"/>
</process>`)
	if err != nil {
		t.Fatal(err)
	}
	s.Engine.Deploy(def)
	inst, err := s.Engine.Start("P", map[string]*xmltree.Element{
		"order": el(t, `<doWork xmlns="urn:t"><Amount>300</Amount></doWork>`),
	})
	if err != nil {
		t.Fatal(err)
	}
	// The oversized result makes the invoke fail its post-condition, so
	// the run ends in a fault; the decision records, not the process
	// outcome, are under test.
	inst.Wait(10 * time.Second) //nolint:errcheck

	// Phase 3 — QoS threshold sweeps over the measured targets.
	s.Monitor.CheckQoS("vep:Svc", "inproc://primary")
	s.Monitor.CheckQoS("vep:Svc", "inproc://backup")

	return rec.Records(decision.Query{})
}

// goldenRecord is the part of a decision record that says which policy
// was consulted where and what it decided.
type goldenRecord struct {
	Site, Policy, Subject string
	Verdict               decision.Verdict
	Reason, Action        string
}

// interpreterGolden is the record sequence the workload produced when
// dispatch still scanned the repository on every event (the repository
// interpreter, now the test oracle in internal/policy/compile): 14
// monitor, 9 bus and 2 decision records.
var interpreterGolden = []goldenRecord{
	{"monitor", "svc-messages", "vep:Svc", "passed", "", ""},
	{"monitor", "svc-messages", "vep:Svc", "passed", "", ""},
	{"monitor", "svc-messages", "vep:Svc", "passed", "", ""},
	{"monitor", "svc-messages", "vep:Svc", "matched", "assertion \"number(//Result) < 100\" is false", "publish:fault.detected"},
	{"bus", "gated-recovery", "vep:Svc", "rejected", "no_process_state", ""},
	{"bus", "never-matches", "vep:Svc", "rejected", "condition_false", ""},
	{"bus", "retry-then-switch", "vep:Svc", "matched", "", "Retry+Substitute"},
	{"monitor", "svc-messages", "vep:Svc", "matched", "assertion \"number(//Result) < 100\" is false", "publish:fault.detected"},
	{"monitor", "svc-messages", "vep:Svc", "passed", "", ""},
	{"bus", "gated-recovery", "vep:Svc", "rejected", "no_process_state", ""},
	{"bus", "never-matches", "vep:Svc", "rejected", "condition_false", ""},
	{"bus", "retry-then-switch", "vep:Svc", "matched", "", "Retry+Substitute"},
	{"monitor", "svc-messages", "vep:Svc", "passed", "", ""},
	{"monitor", "svc-messages", "vep:Svc", "passed", "", ""},
	{"monitor", "svc-messages", "vep:Svc", "passed", "", ""},
	{"monitor", "svc-messages", "vep:Svc", "passed", "", ""},
	{"monitor", "svc-messages", "vep:Svc", "matched", "assertion \"number(//Result) < 100\" is false", "publish:fault.detected"},
	{"decision", "proc-react", "P", "matched", "", "AdjustTimeout"},
	{"decision", "proc-gated", "P", "rejected", "state_mismatch", ""},
	{"bus", "gated-recovery", "vep:Svc", "rejected", "state_mismatch", ""},
	{"bus", "never-matches", "vep:Svc", "rejected", "condition_false", ""},
	{"bus", "retry-then-switch", "vep:Svc", "matched", "", "Retry+Substitute"},
	{"monitor", "svc-messages", "vep:Svc", "matched", "assertion \"number(//Result) < 100\" is false", "publish:fault.detected"},
	{"monitor", "svc-messages", "vep:Svc", "passed", "", ""},
	{"monitor", "svc-messages", "vep:Svc", "passed", "", ""},
}

// TestDecisionWorkloadMatchesInterpreterGolden is the end-to-end oracle
// the compiled dispatch tables are held to: the fixture workload must
// produce the interpreter's decision records — same policies consulted
// in the same order, same verdicts, same rejection reasons, same
// actions.
func TestDecisionWorkloadMatchesInterpreterGolden(t *testing.T) {
	records := runDifferentialWorkload(t)
	var sites, verdicts = map[string]bool{}, map[decision.Verdict]bool{}
	for i, r := range records {
		got := goldenRecord{r.Site, r.Policy, r.Subject, r.Verdict, r.Reason, r.Action}
		if i >= len(interpreterGolden) {
			t.Errorf("record %d beyond the golden: %+v", i, got)
			continue
		}
		if got != interpreterGolden[i] {
			t.Errorf("record %d differs:\ninterpreter: %+v\ncompiled:    %+v", i, interpreterGolden[i], got)
		}
		sites[r.Site] = true
		verdicts[r.Verdict] = true
	}
	if len(records) != len(interpreterGolden) {
		t.Fatalf("record count = %d, interpreter golden %d", len(records), len(interpreterGolden))
	}
	// The fixture must actually exercise the rewired sites and the
	// interesting verdicts, or the equivalence proof is vacuous.
	for _, site := range []string{decision.SiteMonitor, decision.SiteBus, decision.SiteDecision} {
		if !sites[site] {
			t.Errorf("workload produced no records at site %q", site)
		}
	}
	for _, v := range []decision.Verdict{decision.VerdictPassed, decision.VerdictMatched, decision.VerdictRejected} {
		if !verdicts[v] {
			t.Errorf("workload produced no records with verdict %q", v)
		}
	}
}
