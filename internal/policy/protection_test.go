package policy

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

const protectionDoc = `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="protect">
  <ProtectionPolicy name="retailer-guard" subject="vep:Retailer">
    <Admission maxInFlight="8" maxQueue="16" queueTimeout="250ms"/>
    <CircuitBreaker failureThreshold="3" cooldown="15s"/>
    <Hedge afterFactor="1.5" minSamples="20" minDelay="5ms" maxHedges="2"/>
  </ProtectionPolicy>
</PolicyDocument>`

func TestParseProtectionPolicy(t *testing.T) {
	doc, err := ParseString(protectionDoc)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Protection) != 1 {
		t.Fatalf("protection policies = %d", len(doc.Protection))
	}
	pp := doc.Protection[0]
	if pp.Name != "retailer-guard" || pp.Subject != "vep:Retailer" {
		t.Fatalf("pp = %+v", pp)
	}
	wantAdm := &AdmissionSpec{MaxInFlight: 8, MaxQueue: 16, QueueTimeout: 250 * time.Millisecond}
	if !reflect.DeepEqual(pp.Admission, wantAdm) {
		t.Fatalf("admission = %+v, want %+v", pp.Admission, wantAdm)
	}
	wantBrk := &BreakerSpec{FailureThreshold: 3, Cooldown: 15 * time.Second}
	if !reflect.DeepEqual(pp.Breaker, wantBrk) {
		t.Fatalf("breaker = %+v, want %+v", pp.Breaker, wantBrk)
	}
	wantHedge := &HedgeSpec{AfterFactor: 1.5, MinSamples: 20, MinDelay: 5 * time.Millisecond, MaxHedges: 2}
	if !reflect.DeepEqual(pp.Hedge, wantHedge) {
		t.Fatalf("hedge = %+v, want %+v", pp.Hedge, wantHedge)
	}
}

func TestParseProtectionHedgeDefaults(t *testing.T) {
	doc, err := ParseString(`
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="d">
  <ProtectionPolicy name="p"><Hedge/></ProtectionPolicy>
</PolicyDocument>`)
	if err != nil {
		t.Fatal(err)
	}
	h := doc.Protection[0].Hedge
	want := &HedgeSpec{AfterFactor: 1, MinSamples: 10, MaxHedges: 1}
	if !reflect.DeepEqual(h, want) {
		t.Fatalf("hedge defaults = %+v, want %+v", h, want)
	}
}

func TestParseProtectionErrors(t *testing.T) {
	cases := []struct {
		name string
		body string
	}{
		{"no name", `<ProtectionPolicy><Admission maxInFlight="1"/></ProtectionPolicy>`},
		{"empty", `<ProtectionPolicy name="p"/>`},
		{"admission without limit", `<ProtectionPolicy name="p"><Admission maxQueue="4"/></ProtectionPolicy>`},
		{"breaker without threshold", `<ProtectionPolicy name="p"><CircuitBreaker cooldown="5s"/></ProtectionPolicy>`},
		{"breaker without cooldown", `<ProtectionPolicy name="p"><CircuitBreaker failureThreshold="2"/></ProtectionPolicy>`},
		{"hedge zero factor", `<ProtectionPolicy name="p"><Hedge afterFactor="0"/></ProtectionPolicy>`},
		{"hedge zero max", `<ProtectionPolicy name="p"><Hedge maxHedges="0"/></ProtectionPolicy>`},
		{"unknown child", `<ProtectionPolicy name="p"><Bulkhead size="4"/></ProtectionPolicy>`},
		{"bad duration", `<ProtectionPolicy name="p"><Admission maxInFlight="1" queueTimeout="fast"/></ProtectionPolicy>`},
	}
	for _, tc := range cases {
		xml := `<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="d">` + tc.body + `</PolicyDocument>`
		if _, err := ParseString(xml); !errors.Is(err, ErrParse) {
			t.Errorf("%s: err = %v, want ErrParse", tc.name, err)
		}
	}
}

func TestProtectionRoundTrip(t *testing.T) {
	doc, err := ParseString(protectionDoc)
	if err != nil {
		t.Fatal(err)
	}
	encoded, err := doc.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseString(encoded)
	if err != nil {
		t.Fatalf("re-parse of %s: %v", encoded, err)
	}
	if !reflect.DeepEqual(doc.Protection, back.Protection) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", doc.Protection[0], back.Protection[0])
	}
}

func TestValidateDuplicateNameAcrossClasses(t *testing.T) {
	doc, err := ParseString(`
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="d">
  <AdaptationPolicy name="same" priority="1">
    <OnEvent type="fault.detected"/>
    <Actions><Retry maxAttempts="1"/></Actions>
  </AdaptationPolicy>
  <ProtectionPolicy name="same"><Admission maxInFlight="1"/></ProtectionPolicy>
</PolicyDocument>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(doc); err == nil || !strings.Contains(err.Error(), "same") {
		t.Fatalf("err = %v, want duplicate-name rejection", err)
	}
}
