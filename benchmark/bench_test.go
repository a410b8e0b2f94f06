//go:build linux

package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"github.com/masc-project/masc/internal/policy"
	"github.com/masc-project/masc/internal/policy/compile"
)

// testHarness builds mascd once per test; the context kills every
// daemon when the test ends, however it ends.
func testHarness(t *testing.T) (*harness, *benchSpec) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	h, err := newHarness(ctx)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cancel()
		h.close()
	})
	h.layerDiv = 1000
	spec, err := loadSpec(h.root)
	if err != nil {
		t.Fatal(err)
	}
	return h, spec
}

func names(specs []metricSpec) []string {
	var out []string
	for _, m := range specs {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

func emitted(r *result) []string {
	var out []string
	for name := range r.Metrics {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TestWorkloads runs every workload at ~50 operations in both modes.
// It asserts that replies validate, that nothing fails, that the names
// emitted are exactly those of BENCHMARK.json, and that a seed fixes
// the inputs — and nothing about any duration.
func TestWorkloads(t *testing.T) {
	h, spec := testHarness(t)

	var inSpec, inCode []string
	for _, w := range spec.Workloads {
		inSpec = append(inSpec, w.Name)
	}
	for _, w := range workloads {
		inCode = append(inCode, w.name)
	}
	if !slices.Equal(inSpec, inCode) {
		t.Fatalf("BENCHMARK.json workloads %v, harness workloads %v", inSpec, inCode)
	}

	for _, w := range workloads {
		small := *w
		small.ops, small.warmup, small.traced = 50, 10, 20
		t.Run(w.name, func(t *testing.T) {
			if small.cluster && testing.Short() {
				t.Skip("the cluster workload boots two daemons")
			}
			e2e, err := h.runE2E(spec, &small, 7, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !e2e.Correct || e2e.Failed != 0 || e2e.Attempted != small.ops {
				t.Fatalf("end-to-end run: correct=%v attempted=%d failed=%d", e2e.Correct, e2e.Attempted, e2e.Failed)
			}
			if got, want := emitted(e2e), names(spec.EndToEnd); !slices.Equal(got, want) {
				t.Fatalf("end-to-end metrics %v, BENCHMARK.json lists %v", got, want)
			}
			traced, err := h.runTraced(spec, &small, 7)
			if err != nil {
				t.Fatal(err)
			}
			if !traced.Correct || traced.Failed != 0 {
				t.Fatalf("traced run: correct=%v attempted=%d failed=%d", traced.Correct, traced.Attempted, traced.Failed)
			}
			if got, want := emitted(traced), names(spec.PerLayer); !slices.Equal(got, want) {
				t.Fatalf("per-layer metrics %v, BENCHMARK.json lists %v", got, want)
			}
			if e2e.InputSHA == "" || e2e.InputSHA != traced.InputSHA {
				t.Fatalf("seed 7 gave inputs %q, then %q", e2e.InputSHA, traced.InputSHA)
			}
			other := inputSHA(func(i int) string { return small.build(newGen(8), i) }, small.ops)
			if other == e2e.InputSHA {
				t.Fatalf("seeds 7 and 8 gave the same inputs %q", other)
			}
			raw, err := os.ReadFile(filepath.Join(h.out, "trace-"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var spans []span
			if err := json.Unmarshal(raw, &spans); err != nil || len(spans) < small.traced {
				t.Fatalf("trace file holds %d spans (%v), want at least one per traced request", len(spans), err)
			}
		})
	}
}

// TestPolicyBundle lints the bench bundle with the compiler front-end
// and checks on a running daemon that both monitoring policies pass on
// the generated messages of every shape.
func TestPolicyBundle(t *testing.T) {
	h, _ := testHarness(t)
	raw, err := os.ReadFile(filepath.Join(h.root, "benchmark", "policies", "bench.xml"))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := policy.ParseString(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	if diags := compile.CheckDocument(doc); len(diags) != 0 {
		t.Fatalf("bench.xml diagnostics: %v", diags)
	}

	dir := t.TempDir()
	d, _, err := h.boot(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.kill()
	g := newGen(7)
	for _, shape := range []struct {
		build func(*gen, int) string
		reply string
	}{
		{(*gen).catalogSmall, "getCatalogResponse"},
		{(*gen).catalogLarge, "getCatalogResponse"},
		{(*gen).orderLarge, "submitOrderResponse"},
	} {
		build := shape.build
		l := newLoader(h, []string{d.base}, "/vep/Retailer", shape.reply, func(i int) string { return build(g, i) })
		for i := 0; i < 4; i++ {
			if err := l.send(h.ctx, 0, i, true); err != nil {
				t.Fatal(err)
			}
		}
		l.close()
	}
	for policyName, want := range map[string]int{"catalog-header": 16, "order-body": 8} {
		body, err := h.get(d.base + "/api/v1/decisions?limit=1000&policy=" + policyName)
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Records []struct{ Verdict, Reason string } `json:"records"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if len(got.Records) != want {
			t.Errorf("policy %s left %d decision records, want %d (a request and a response check per message)", policyName, len(got.Records), want)
		}
		for _, r := range got.Records {
			if r.Verdict != "passed" {
				t.Errorf("policy %s: verdict %q (%s), want passed", policyName, r.Verdict, r.Reason)
			}
		}
	}
}

// TestCompare pins the verdict rules on hand-made sets.
func TestCompare(t *testing.T) {
	spec := &benchSpec{
		EndToEnd: []metricSpec{{Name: "rps", Better: "higher", Bound: 0.05}, {Name: "p50_ms", Better: "lower", Bound: 0.05}},
	}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	set := func(rps, p50 []float64) []*result {
		var out []*result
		for i := range rps {
			out = append(out, &result{Workload: "w", Metrics: map[string]metricJSON{"rps": {Value: rps[i]}, "p50_ms": {Value: p50[i]}}})
		}
		return out
	}
	a := set([]float64{1000, 1010, 990}, []float64{1.00, 1.01, 0.99})
	for name, tc := range map[string]struct {
		b    []*result
		want [2]string // verdict on rps, on p50_ms
	}{
		"same":                 {set([]float64{1005, 995, 1000}, []float64{1.0, 1.01, 1.0}), [2]string{"ok", "ok"}},
		"slower":               {set([]float64{900, 905, 895}, []float64{1.10, 1.11, 1.09}), [2]string{"regressed", "regressed"}},
		"faster":               {set([]float64{1200, 1190, 1210}, []float64{0.8, 0.81, 0.79}), [2]string{"ok", "ok"}},
		"noisy":                {set([]float64{800, 1000, 1200}, []float64{0.7, 1.0, 1.3}), [2]string{"unresolved", "unresolved"}},
		"noisy but all better": {set([]float64{1100, 1500, 1900}, []float64{0.2, 0.5, 0.9}), [2]string{"ok", "ok"}},
	} {
		rows := compareSets(spec, a, tc.b)
		if len(rows) != 2 || rows[0].verdict != tc.want[0] || rows[1].verdict != tc.want[1] {
			t.Errorf("%s: verdicts %+v, want %v", name, rows, tc.want)
		}
	}
	if q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want Python's 2.75 5.5 8.25", q1, q2, q3)
	}
}
