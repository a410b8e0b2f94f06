package telemetry

import (
	"runtime"
	"testing"
)

func TestSnapshotRendersAllKinds(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("masc_test_total", "A counter.", "outcome").With("ok").Add(3)
	reg.Gauge("masc_test_gauge", "A gauge.").With().Set(1.5)
	h := reg.Histogram("masc_test_seconds", "A histogram.", []float64{0.1, 1}).With()
	h.Observe(0.05)
	h.Observe(0.5)

	byName := map[string]FamilySnapshot{}
	for _, f := range reg.Snapshot() {
		byName[f.Name] = f
	}
	c := byName["masc_test_total"]
	if c.Kind != "counter" || len(c.Samples) != 1 || c.Samples[0].Value != 3 ||
		c.Samples[0].Labels["outcome"] != "ok" {
		t.Fatalf("counter snapshot = %+v", c)
	}
	g := byName["masc_test_gauge"]
	if g.Kind != "gauge" || g.Samples[0].Value != 1.5 {
		t.Fatalf("gauge snapshot = %+v", g)
	}
	hs := byName["masc_test_seconds"]
	if hs.Kind != "histogram" || hs.Samples[0].Count != 2 || hs.Samples[0].Sum != 0.55 {
		t.Fatalf("histogram snapshot = %+v", hs)
	}
	// Buckets are cumulative: 0.05 lands in le=0.1, both in le=1.
	b := hs.Samples[0].Buckets
	if len(b) != 2 || b[0].Count != 1 || b[1].Count != 2 {
		t.Fatalf("histogram buckets = %+v", b)
	}
}

func TestSnapshotRunsCollectHooks(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("masc_test_hooked", "Hook-published gauge.").With()
	reg.OnCollect(func() { g.Set(7) })
	for _, f := range reg.Snapshot() {
		if f.Name == "masc_test_hooked" && f.Samples[0].Value == 7 {
			return
		}
	}
	t.Fatal("collect hook did not run before snapshot")
}

func TestRuntimeCollectorPublishesGauges(t *testing.T) {
	runtime.GC() // ensure at least one GC cycle has been recorded
	reg := NewRegistry()
	NewRuntimeCollector(reg)
	want := map[string]bool{
		"masc_go_goroutines":         false,
		"masc_go_heap_objects_bytes": false,
		"masc_go_alloc_bytes_total":  false,
		"masc_go_gc_cycles_total":    false,
	}
	for _, f := range reg.Snapshot() {
		if _, tracked := want[f.Name]; !tracked {
			continue
		}
		if len(f.Samples) > 0 && f.Samples[0].Value > 0 {
			want[f.Name] = true
		}
	}
	for name, ok := range want {
		if !ok {
			t.Errorf("%s not populated after snapshot", name)
		}
	}
}

func TestLintExpositionFindsMissingHelp(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("masc_documented_total", "Documented.").With().Inc()
	reg.Counter("masc_undocumented_total", "").With().Inc()
	missing := reg.LintExposition()
	if len(missing) != 1 || missing[0] != "masc_undocumented_total" {
		t.Fatalf("LintExposition() = %v", missing)
	}
}
