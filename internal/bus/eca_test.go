package bus

import (
	"context"
	"fmt"
	"testing"

	"github.com/masc-project/masc/internal/policy"
)

// stateAdapter is a process layer that knows one instance in a fixed
// adaptation state and runs every process action.
type stateAdapter struct{ state string }

func (a *stateAdapter) ExecuteProcessAction(context.Context, string, policy.Action) error {
	return nil
}
func (a *stateAdapter) AdaptationState(string) (string, bool) { return a.state, true }
func (a *stateAdapter) SetAdaptationState(_, state string)    { a.state = state }

// TestRecoveryBindsEveryConditionVariable: a recovery condition on each
// of the six variables an adaptation site binds evaluates — to the
// value the exchange carries — instead of failing as condition_error.
func TestRecoveryBindsEveryConditionVariable(t *testing.T) {
	for variable, cond := range map[string]string{
		"faultType":            "$faultType = 'ServiceUnavailableFault'",
		"target":               "$target = 'inproc://a'",
		"operation":            "$operation = 'getCatalog'",
		"instanceID":           "$instanceID = 'proc-1'",
		"state":                "$state = 'escalated'",
		"instanceMessageCount": "$instanceMessageCount >= 1",
	} {
		b, v, _ := testBus(t, fmt.Sprintf(`
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="p">
  <AdaptationPolicy name="skip" subject="vep:Retailer" priority="5">
    <OnEvent type="fault.detected"/>
    <Condition>%s</Condition>
    <Actions><Skip/></Actions>
  </AdaptationPolicy>
</PolicyDocument>`, cond), map[string]*scriptedService{"inproc://a": {failFor: 1000}}, VEPConfig{})
		b.SetProcessAdapter(&stateAdapter{state: "escalated"})
		resp, err := v.Invoke(context.Background(), "", catalogReq(t))
		if err != nil || resp.Payload.AttrValue("", "skipped") != "true" {
			t.Errorf("$%s: resp = %v err = %v, want the skip policy's response", variable, resp, err)
		}
	}
}

// TestRecoveryConditionOnState: a recovery policy gated on the
// correlated instance's $state substitutes the healthy backup. Before
// the bus bound $state, the condition failed to evaluate and the
// request failed.
func TestRecoveryConditionOnState(t *testing.T) {
	primary, backup := &scriptedService{failFor: 1000}, &scriptedService{}
	b, v, _ := testBus(t, `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="p">
  <AdaptationPolicy name="escalated-failover" subject="vep:Retailer" priority="5">
    <OnEvent type="fault.detected"/>
    <Condition>$state = 'escalated'</Condition>
    <StateAfter>failed-over</StateAfter>
    <Actions><Substitute selection="first"/></Actions>
  </AdaptationPolicy>
</PolicyDocument>`, map[string]*scriptedService{"inproc://a": primary, "inproc://b": backup},
		VEPConfig{Selection: policy.SelectFirst})
	pa := &stateAdapter{state: "escalated"}
	b.SetProcessAdapter(pa)
	resp, err := v.Invoke(context.Background(), "", catalogReq(t))
	if err != nil || resp.IsFault() {
		t.Fatalf("resp = %v err = %v, want the backup's answer", resp, err)
	}
	if backup.count() != 1 || pa.state != "failed-over" {
		t.Fatalf("backup calls = %d, state = %q; want 1 and failed-over", backup.count(), pa.state)
	}
}
