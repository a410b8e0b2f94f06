package experiments

import (
	"strings"
	"testing"
	"time"
)

func TestSelectionComparisonShape(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation")
	}
	points, err := RunSelectionComparison(Table1Config{Requests: 400, Clients: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 5 {
		t.Fatalf("points = %d", len(points))
	}
	byName := map[string]SelectionPoint{}
	for _, p := range points {
		byName[p.Strategy] = p
	}
	// Any strategy with substitution available must beat plain retries.
	retryOnly := byName["retry-only"].FailuresPer1000
	for _, s := range []string{"failover-first", "failover-bestQoS", "retry-then-failover", "broadcast-first-response"} {
		if byName[s].FailuresPer1000 > retryOnly+5 {
			t.Errorf("%s (%.1f) worse than retry-only (%.1f)", s, byName[s].FailuresPer1000, retryOnly)
		}
	}
	t.Logf("\n%s", FormatSelection(points))
}

func TestReparseAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation")
	}
	const requests = 2500
	points, err := RunReparseAblation(Table1Config{Requests: requests, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	obj, reparse := points[0], points[1]
	if obj.Mode != "object-repository" || reparse.Mode != "reparse-per-decision" {
		t.Fatalf("modes = %q %q", obj.Mode, reparse.Mode)
	}
	// The object repository parses once, at setup; every measured
	// request faults, so the re-parse arm parses at least once per
	// request (the paper's §3.2 optimization rationale). The RTT
	// ordering that follows from it is wall-clock, so it is only logged.
	if obj.Parses != 1 {
		t.Errorf("object repository parsed %d times, want 1", obj.Parses)
	}
	if reparse.Parses < requests {
		t.Errorf("re-parse arm parsed %d times over %d requests", reparse.Parses, requests)
	}
	t.Logf("re-parse slower than object repository: %v", reparse.MeanRTT > obj.MeanRTT)
	t.Logf("\n%s", FormatReparse(points))
}

func TestListenerAblationRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation")
	}
	points, err := RunListenerAblation(ThroughputConfig{RequestsPerClient: 40, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.Throughput <= 0 {
			t.Fatalf("throughput %v for %s", p.Throughput, p.Mode)
		}
	}
	// No winner asserted: Go goroutines invert the paper's Java
	// thread-per-request penalty (see EXPERIMENTS.md E8d).
	t.Logf("\n%s", FormatListener(points))
}

func TestCSVWriters(t *testing.T) {
	var sb strings.Builder
	rows := []Table1Row{{Configuration: "Direct A", Requests: 100, Failures: 7, FailuresPer1000: 70, Availability: 0.93, MeanRTT: 450 * time.Microsecond}}
	if err := WriteTable1CSV(&sb, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Direct A,100,7,70.00,0.9300,450") {
		t.Fatalf("table1 csv:\n%s", sb.String())
	}

	sb.Reset()
	points := []Figure5Point{{Operation: "getCatalog", SizeKB: 8, DirectRTT: 2 * time.Millisecond, BusRTT: 2200 * time.Microsecond, OverheadPct: 10}}
	if err := WriteFigure5CSV(&sb, points); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "getCatalog,8,2000,2200,10.00") {
		t.Fatalf("figure5 csv:\n%s", sb.String())
	}

	sb.Reset()
	tp := []ThroughputPoint{{Concurrency: 4, DirectRPS: 1000, BusRPS: 900, OverheadPct: 10}}
	if err := WriteThroughputCSV(&sb, tp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "4,1000.0,900.0,10.00") {
		t.Fatalf("throughput csv:\n%s", sb.String())
	}
}
