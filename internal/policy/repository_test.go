package policy_test

import (
	"strings"
	"testing"

	"github.com/masc-project/masc/internal/event"
	"github.com/masc-project/masc/internal/policy"
	"github.com/masc-project/masc/internal/policy/compile"
)

// The repository's lookups are answered by the compiled set that
// compile.Lookup publishes, so these tests live in the external test
// package, which may import the compiler.

func TestRepository(t *testing.T) {
	r := policy.NewRepository()
	if _, err := r.LoadXML(policy.FullDoc); err != nil {
		t.Fatal(err)
	}
	if docs := r.Snapshot(); len(docs) != 1 || docs[0].Name != "scm-policies" {
		t.Fatalf("Snapshot = %v", docs)
	}

	mons := compile.Lookup(r).MonitoringFor("vep:Retailer", "getCatalog")
	if len(mons) != 1 {
		t.Fatalf("MonitoringFor = %d", len(mons))
	}
	if mons := compile.Lookup(r).MonitoringFor("vep:Retailer", "submitOrder"); len(mons) != 0 {
		t.Fatalf("operation scope leaked: %d", len(mons))
	}

	e := event.Event{Type: event.TypeFaultDetected, FaultType: "TimeoutFault"}
	aps := compile.Lookup(r).AdaptationFor(e, "vep:Retailer")
	if len(aps) != 1 || aps[0].Name != "retry-then-failover" {
		t.Fatalf("AdaptationFor = %+v", names(aps))
	}

	// Any-fault policy matches other fault types.
	e2 := event.Event{Type: event.TypeFaultDetected, FaultType: "ServiceUnavailableFault"}
	aps = compile.Lookup(r).AdaptationFor(e2, "vep:Logging")
	if len(aps) != 1 || aps[0].Name != "skip-logging" {
		t.Fatalf("AdaptationFor logging = %v", names(aps))
	}

	if !r.Unload("scm-policies") {
		t.Fatal("Unload returned false")
	}
	if r.Unload("scm-policies") {
		t.Fatal("second Unload returned true")
	}
	if len(compile.Lookup(r).AdaptationFor(e, "vep:Retailer")) != 0 {
		t.Fatal("policies survive unload")
	}
}

func TestRepositoryPriorityOrdering(t *testing.T) {
	doc := `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="prio">
  <AdaptationPolicy name="low" priority="1"><OnEvent type="fault.detected"/><Actions><Skip/></Actions></AdaptationPolicy>
  <AdaptationPolicy name="high" priority="9"><OnEvent type="fault.detected"/><Actions><Skip/></Actions></AdaptationPolicy>
  <AdaptationPolicy name="alpha" priority="5"><OnEvent type="fault.detected"/><Actions><Skip/></Actions></AdaptationPolicy>
  <AdaptationPolicy name="beta" priority="5"><OnEvent type="fault.detected"/><Actions><Skip/></Actions></AdaptationPolicy>
</PolicyDocument>`
	r := policy.NewRepository()
	if _, err := r.LoadXML(doc); err != nil {
		t.Fatal(err)
	}
	aps := compile.Lookup(r).AdaptationFor(event.Event{Type: event.TypeFaultDetected}, "")
	got := names(aps)
	want := []string{"high", "alpha", "beta", "low"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

func TestRepositoryLiveReplace(t *testing.T) {
	r := policy.NewRepository()
	v1 := `<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="d">
		<AdaptationPolicy name="p" priority="1"><OnEvent type="fault.detected"/><Actions><Skip/></Actions></AdaptationPolicy>
	</PolicyDocument>`
	v2 := `<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="d">
		<AdaptationPolicy name="p" priority="1"><OnEvent type="fault.detected"/><Actions><Retry maxAttempts="5"/></Actions></AdaptationPolicy>
	</PolicyDocument>`
	if _, err := r.LoadXML(v1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.LoadXML(v2); err != nil {
		t.Fatal(err)
	}
	aps := compile.Lookup(r).AdaptationFor(event.Event{Type: event.TypeFaultDetected}, "")
	if len(aps) != 1 {
		t.Fatalf("policies = %d, want 1 (replaced, not appended)", len(aps))
	}
	if _, ok := aps[0].Actions[0].(policy.RetryAction); !ok {
		t.Fatal("replacement not visible")
	}
}

func TestRepositoryProtectionFor(t *testing.T) {
	r := policy.NewRepository()
	if _, err := r.LoadXML(`
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="b-doc">
  <ProtectionPolicy name="wildcard"><Admission maxInFlight="100"/></ProtectionPolicy>
</PolicyDocument>`); err != nil {
		t.Fatal(err)
	}
	if _, err := r.LoadXML(`
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="a-doc">
  <ProtectionPolicy name="retailer" subject="vep:Retailer"><Admission maxInFlight="4"/></ProtectionPolicy>
</PolicyDocument>`); err != nil {
		t.Fatal(err)
	}
	if _, _, n := compile.Lookup(r).Counts(); n != 2 {
		t.Fatalf("ProtectionCount = %d", n)
	}
	// Documents are consulted in name order: a-doc's subject-scoped
	// policy wins for the retailer, the wildcard covers everyone else.
	if pp := compile.Lookup(r).ProtectionFor("vep:Retailer"); pp == nil || pp.Name != "retailer" {
		t.Fatalf("ProtectionFor(vep:Retailer) = %+v", pp)
	}
	if pp := compile.Lookup(r).ProtectionFor("vep:Warehouse"); pp == nil || pp.Name != "wildcard" {
		t.Fatalf("ProtectionFor(vep:Warehouse) = %+v", pp)
	}
}

func names(aps []*compile.CompiledAdaptation) []string {
	out := make([]string, 0, len(aps))
	for _, ap := range aps {
		out = append(out, ap.Name)
	}
	return out
}
