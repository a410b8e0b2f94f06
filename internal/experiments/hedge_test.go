package experiments

import (
	"strings"
	"testing"
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
	points, err := RunHedgeComparison(HedgeConfig{Requests: 2000, Seed: 7})
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
