package policy_test

import (
	"fmt"

	"github.com/masc-project/masc/internal/event"
	"github.com/masc-project/masc/internal/policy"
	"github.com/masc-project/masc/internal/policy/compile"
)

// ExampleParseString shows loading a WS-Policy4MASC document and
// inspecting the parsed policies.
func ExampleParseString() {
	doc, err := policy.ParseString(`
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="example">
  <AdaptationPolicy name="retry-then-failover" subject="vep:Retailer" priority="10">
    <OnEvent type="fault.detected" faultType="TimeoutFault"/>
    <Actions>
      <Retry maxAttempts="3" delay="2s"/>
      <Substitute selection="bestResponseTime"/>
    </Actions>
  </AdaptationPolicy>
</PolicyDocument>`)
	if err != nil {
		fmt.Println("parse:", err)
		return
	}
	p := doc.Adaptation[0]
	fmt.Printf("%s: on %s(%s), %d actions, priority %d\n",
		p.Name, p.Trigger.EventType, p.Trigger.FaultType, len(p.Actions), p.Priority)
	// Output:
	// retry-then-failover: on fault.detected(TimeoutFault), 2 actions, priority 10
}

// ExampleRepository shows priority-ordered policy lookup per event,
// answered by the repository's compiled set.
func ExampleRepository() {
	repo := policy.NewRepository()
	_, err := repo.LoadXML(`
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="d">
  <AdaptationPolicy name="low" subject="vep:S" priority="1">
    <OnEvent type="fault.detected"/><Actions><Skip/></Actions>
  </AdaptationPolicy>
  <AdaptationPolicy name="high" subject="vep:S" priority="9">
    <OnEvent type="fault.detected"/><Actions><Retry maxAttempts="1"/></Actions>
  </AdaptationPolicy>
</PolicyDocument>`)
	if err != nil {
		fmt.Println("load:", err)
		return
	}
	for _, p := range compile.Lookup(repo).AdaptationFor(event.Event{Type: event.TypeFaultDetected}, "vep:S") {
		fmt.Println(p.Name)
	}
	// Output:
	// high
	// low
}
