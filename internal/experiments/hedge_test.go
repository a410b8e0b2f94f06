package experiments

import (
	"strings"
	"testing"

	"github.com/masc-project/masc/internal/faultinject"
)

// TestHedgeComparisonShape asserts the hedging experiment's qualitative
// result: with slow outliers injected, the hedged VEP launches hedges,
// some of them win, and at most a quarter as many client replies are
// served by a degraded attempt as without hedging. The healthy p95
// that triggers a hedge is ~0.5 ms on an idle machine and 3–5 ms under
// parallel package load; a 20 ms outlier stays an order of magnitude
// above it either way, so the count does not depend on how loaded the
// machine is. The p99s it prints are a report, not an assertion.
func TestHedgeComparisonShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full tail-latency run")
	}
	cfg := HedgeConfig{Requests: 2000, Seed: 7}
	points, err := RunHedgeComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	unhedged, hedged := points[0], points[1]
	if unhedged.Mode != "unhedged" || hedged.Mode != "hedged" {
		t.Fatalf("modes = %q, %q", unhedged.Mode, hedged.Mode)
	}
	if unhedged.HedgesLaunched != 0 {
		t.Errorf("unhedged mode launched %d hedges", unhedged.HedgesLaunched)
	}
	if hedged.HedgesLaunched == 0 || hedged.HedgesWon == 0 {
		t.Errorf("hedged mode launched = %d won = %d, want both > 0",
			hedged.HedgesLaunched, hedged.HedgesWon)
	}
	// Unhedged, every request reaches one retailer once, round-robin,
	// so the schedules fix the degraded count: replay them, and hold
	// the count seed 7 gives.
	if want := replayDegraded(cfg); unhedged.Degraded != want || want != 104 {
		t.Errorf("unhedged: %d replies served degraded, replay says %d, golden 104", unhedged.Degraded, want)
	}
	if unhedged.Degraded == 0 || 4*hedged.Degraded > unhedged.Degraded {
		t.Errorf("replies served by a degraded attempt: hedged %d, unhedged %d; want hedged ≤ ¼ × unhedged > 0",
			hedged.Degraded, unhedged.Degraded)
	}

	out := FormatHedge(points)
	t.Log("\n" + out)
	for _, want := range []string{"unhedged", "hedged", "p99"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatHedge output missing %q:\n%s", want, out)
		}
	}
}

// replayDegraded counts the measured requests of the unhedged mode
// that the retailers' schedules delay: request r, warm-up included,
// goes to retailer r mod n as that retailer's request r/n.
func replayDegraded(cfg HedgeConfig) int {
	cfg.fill()
	warm := cfg.Clients * (2 * hedgeProtection().Hedge.MinSamples * cfg.Retailers / cfg.Clients)
	n := cfg.Retailers
	degraded := 0
	for r := warm; r < warm+cfg.Requests; r++ {
		d := faultinject.NewDegradation(cfg.DegradeP, cfg.DegradeMin, cfg.DegradeMax, cfg.Seed+int64(r%n))
		if d.Decide(uint64(r/n)).Tag != "" {
			degraded++
		}
	}
	return degraded
}
