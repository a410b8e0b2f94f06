package policy

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/masc-project/masc/internal/event"
	"github.com/masc-project/masc/internal/xpath"
)

// genPolicy builds a random-but-valid adaptation policy from a seed.
func genPolicy(rng *rand.Rand, idx int) *AdaptationPolicy {
	kinds := []AdaptationKind{KindCorrection, KindOptimization, KindPrevention}
	triggers := []event.Type{event.TypeFaultDetected, event.TypeSLAViolation}
	selections := []SelectionKind{SelectRoundRobin, SelectBestResponseTime, SelectRandom, SelectFirst}
	faults := []string{"", "TimeoutFault", "ServiceUnavailableFault"}

	p := &AdaptationPolicy{
		Name:     fmt.Sprintf("policy-%d", idx),
		Scope:    Scope{Subject: fmt.Sprintf("vep:S%d", rng.Intn(3))},
		Kind:     kinds[rng.Intn(len(kinds))],
		Priority: rng.Intn(100) - 50,
		Layer:    LayerMessaging,
		Trigger: Trigger{
			EventType: triggers[rng.Intn(len(triggers))],
			FaultType: faults[rng.Intn(len(faults))],
		},
	}
	if p.Trigger.EventType != event.TypeFaultDetected && p.Trigger.EventType != event.TypeSLAViolation {
		p.Trigger.FaultType = ""
	}
	if rng.Intn(2) == 0 {
		p.Condition = xpath.MustCompile(fmt.Sprintf("number(//Amount) > %d", rng.Intn(10000)))
	}
	if rng.Intn(3) == 0 {
		p.StateBefore = fmt.Sprintf("s%d", rng.Intn(3))
	}
	if rng.Intn(3) == 0 {
		p.StateAfter = fmt.Sprintf("s%d", rng.Intn(3))
	}
	if rng.Intn(2) == 0 {
		p.BusinessValue = &BusinessValue{
			Amount:   float64(rng.Intn(2000)-1000) / 4,
			Currency: "AUD",
			Reason:   "generated",
		}
	}

	// 1-3 actions; retry at most once, terminal actions last.
	n := 1 + rng.Intn(2)
	usedRetry := false
	for i := 0; i < n; i++ {
		switch rng.Intn(3) {
		case 0:
			if usedRetry {
				continue
			}
			usedRetry = true
			p.Actions = append(p.Actions, RetryAction{
				MaxAttempts: rng.Intn(5),
				Delay:       time.Duration(rng.Intn(1000)) * time.Millisecond,
				Backoff:     []BackoffKind{BackoffFixed, BackoffExponential}[rng.Intn(2)],
			})
		case 1:
			p.Actions = append(p.Actions, SubstituteAction{
				Selection:       selections[rng.Intn(len(selections))],
				MaxAlternatives: rng.Intn(4),
			})
		default:
			p.Actions = append(p.Actions, ConcurrentAction{MaxTargets: rng.Intn(5)})
		}
	}
	if len(p.Actions) == 0 {
		p.Actions = append(p.Actions, SkipAction{})
	}
	return p
}

// TestQuickDocumentRoundTrip property-tests that any generated valid
// document survives Encode → Parse with every field intact.
func TestQuickDocumentRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		doc := &Document{Name: fmt.Sprintf("doc-%d", seed&0xffff)}
		for i := 0; i < 1+rng.Intn(4); i++ {
			doc.Adaptation = append(doc.Adaptation, genPolicy(rng, i))
		}
		if err := Validate(doc); err != nil {
			t.Logf("seed %d generated invalid document: %v", seed, err)
			return false
		}
		text, err := doc.Encode()
		if err != nil {
			t.Logf("seed %d encode: %v", seed, err)
			return false
		}
		back, err := ParseString(text)
		if err != nil {
			t.Logf("seed %d parse: %v\n%s", seed, err, text)
			return false
		}
		if back.Name != doc.Name || len(back.Adaptation) != len(doc.Adaptation) {
			return false
		}
		for i, orig := range doc.Adaptation {
			got := back.Adaptation[i]
			if got.Name != orig.Name || got.Kind != orig.Kind ||
				got.Priority != orig.Priority || got.Layer != orig.Layer ||
				got.Trigger != orig.Trigger ||
				got.StateBefore != orig.StateBefore || got.StateAfter != orig.StateAfter {
				t.Logf("seed %d policy %d metadata changed:\norig %+v\ngot  %+v", seed, i, orig, got)
				return false
			}
			if (orig.Condition == nil) != (got.Condition == nil) {
				return false
			}
			if orig.Condition != nil && orig.Condition.Source() != got.Condition.Source() {
				return false
			}
			if (orig.BusinessValue == nil) != (got.BusinessValue == nil) {
				return false
			}
			if orig.BusinessValue != nil && *orig.BusinessValue != *got.BusinessValue {
				return false
			}
			if len(orig.Actions) != len(got.Actions) {
				return false
			}
			for j := range orig.Actions {
				if orig.Actions[j] != got.Actions[j] {
					t.Logf("seed %d policy %d action %d changed: %+v vs %+v",
						seed, i, j, orig.Actions[j], got.Actions[j])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
