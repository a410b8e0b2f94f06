//go:build !race

// The race detector allocates for its own bookkeeping, so allocation
// counts are only held without it.

package bus

import (
	"context"
	"errors"
	"testing"

	"github.com/masc-project/masc/internal/clock"
	"github.com/masc-project/masc/internal/policy"
	"github.com/masc-project/masc/internal/telemetry"
	"github.com/masc-project/masc/internal/telemetry/decision"
	"github.com/masc-project/masc/internal/transport"
)

// TestRecoveryRoundAllocations holds one recovery round of vep_faulty's
// shape — benchmark/policies/bench.xml's unconditioned
// retry-then-failover on a dead first backend, with telemetry and
// decision records — to the 78 allocations it took before the bus ran
// the shared ECA loop.
func TestRecoveryRoundAllocations(t *testing.T) {
	net := transport.NewNetwork()
	live := &scriptedService{}
	net.Register("inproc://a", live.handler())
	net.Register("inproc://b", live.handler())
	repo := policy.NewRepository()
	if _, err := repo.LoadXML(`
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="bench">
  <AdaptationPolicy name="retry-then-failover" subject="vep:Retailer" priority="10" kind="correction">
    <OnEvent type="fault.detected"/>
    <Actions>
      <Retry maxAttempts="1" delay="0s"/>
      <Substitute selection="bestResponseTime"/>
    </Actions>
  </AdaptationPolicy>
</PolicyDocument>`); err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New(0)
	// A fake clock keeps time-windowed bookkeeping from allocating more
	// when the box is loaded and the rounds run slower.
	b := New(net, WithClock(clock.NewFakeAtZero()), WithPolicyRepository(repo), WithTelemetry(tel),
		WithDecisions(decision.NewRecorder(0, tel.Registry())))
	v, err := b.CreateVEP(VEPConfig{Name: "Retailer", Services: []string{"inproc://dead", "inproc://a", "inproc://b"},
		Contract: scmContract(), Selection: policy.SelectFirst})
	if err != nil {
		t.Fatal(err)
	}
	req := catalogReq(t)
	down := errors.New("dead backend")
	round := func() {
		if _, _, err := v.correct(context.Background(), req, "getCatalog", "inproc://dead", "ServiceUnavailableFault", nil, down); err != nil {
			t.Fatal(err)
		}
	}
	round()
	const ceiling = 78
	if n := testing.AllocsPerRun(500, round); n > ceiling {
		t.Errorf("one recovery round: %.0f allocations, ceiling %d", n, ceiling)
	} else {
		t.Logf("one recovery round: %.0f allocations", n)
	}
}
