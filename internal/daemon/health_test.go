package daemon

import (
	"fmt"
	"sync"
	"testing"

	"github.com/masc-project/masc/internal/policy"
	"github.com/masc-project/masc/internal/policy/compile"
)

// healthPolicy is the policy part of a /healthz response.
type healthPolicy struct {
	Revision   string   `json:"policy_revision"`
	Documents  []string `json:"policy_documents"`
	Monitoring int      `json:"monitoring_policies"`
	Adaptation int      `json:"adaptation_policies"`
	Protection int      `json:"protection_policies"`
}

// TestHealthzReadsOnePolicySnapshot polls /healthz while the policy
// bundle swaps 200 times between two bundles with different documents
// and counts: every response must describe exactly one of them.
func TestHealthzReadsOnePolicySnapshot(t *testing.T) {
	parse := func(text string) *policy.Document {
		d, err := policy.ParseString(text)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	bundles := [][]*policy.Document{
		{parse(`<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="bundle-a">
  <MonitoringPolicy name="m" subject="vep:Retailer"><QoSThreshold metric="availability" min="0.9"/></MonitoringPolicy>
  <AdaptationPolicy name="a1" subject="vep:Retailer" priority="1"><OnEvent type="fault.detected"/><Actions><Skip/></Actions></AdaptationPolicy>
  <AdaptationPolicy name="a2" subject="vep:Retailer" priority="2"><OnEvent type="fault.detected"/><Actions><Skip/></Actions></AdaptationPolicy>
</PolicyDocument>`)},
		{parse(`<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="bundle-b1">
  <MonitoringPolicy name="m1" subject="vep:Retailer"><QoSThreshold metric="availability" min="0.9"/></MonitoringPolicy>
  <MonitoringPolicy name="m2" subject="vep:Retailer"><QoSThreshold metric="reliability" min="0.9"/></MonitoringPolicy>
</PolicyDocument>`),
			parse(`<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="bundle-b2">
  <ProtectionPolicy name="g" subject="vep:Retailer"><Admission maxInFlight="64"/></ProtectionPolicy>
</PolicyDocument>`)},
	}
	want := make([]string, len(bundles))
	for i, docs := range bundles {
		cs, err := compile.Compile(docs)
		if err != nil {
			t.Fatal(err)
		}
		mon, adapt, prot := cs.Counts()
		var names []string
		for _, d := range docs {
			names = append(names, d.Name)
		}
		want[i] = fmt.Sprint(healthPolicy{cs.Manifest.Revision, names, mon, adapt, prot})
	}

	n := newNode(t)
	d := n.boot(t, Config{})
	if err := d.repo.ReplaceAll(bundles[0]); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 200; i++ {
			if err := d.repo.ReplaceAll(bundles[(i+1)%2]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	seen := map[string]int{}
	for polling := true; polling; {
		select {
		case <-done:
			polling = false
		default:
		}
		var h healthPolicy
		n.get(t, apiPrefix+"/healthz", &h)
		got := fmt.Sprint(h)
		if got != want[0] && got != want[1] {
			t.Fatalf("healthz mixes bundles: %s\nbundle a: %s\nbundle b: %s", got, want[0], want[1])
		}
		seen[got]++
	}
	wg.Wait()
	t.Logf("responses per bundle: %v", seen)
}
