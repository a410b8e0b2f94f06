package bus

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/masc-project/masc/internal/event"
	"github.com/masc-project/masc/internal/policy"
	"github.com/masc-project/masc/internal/telemetry"
	"github.com/masc-project/masc/internal/transport"
)

// telemetryBus assembles a bus with telemetry wired in, one VEP named
// Retailer, and the given services.
func telemetryBus(t *testing.T, policyXML string, services map[string]*scriptedService, cfg VEPConfig) (*Bus, *VEP, *telemetry.Telemetry) {
	t.Helper()
	net := transport.NewNetwork()
	for addr, svc := range services {
		net.Register(addr, svc.handler())
	}
	if cfg.Services == nil {
		for _, a := range []string{"inproc://a", "inproc://b", "inproc://c"} {
			if _, ok := services[a]; ok {
				cfg.Services = append(cfg.Services, a)
			}
		}
	}
	repo := policy.NewRepository()
	if policyXML != "" {
		if _, err := repo.LoadXML(policyXML); err != nil {
			t.Fatal(err)
		}
	}
	tel := telemetry.New(0)
	b := New(net,
		WithPolicyRepository(repo),
		WithEventBus(event.NewBus()),
		WithSeed(7),
		WithTelemetry(tel))
	if cfg.Name == "" {
		cfg.Name = "Retailer"
	}
	if cfg.Contract == nil {
		cfg.Contract = scmContract()
	}
	v, err := b.CreateVEP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b, v, tel
}

func TestTelemetryMetricsRecorded(t *testing.T) {
	bad := &scriptedService{failFor: 1000}
	good := &scriptedService{}
	b, _, tel := telemetryBus(t, retryThenFailoverXML, map[string]*scriptedService{
		"inproc://a": bad,
		"inproc://b": good,
	}, VEPConfig{Selection: policy.SelectFirst})

	resp, err := b.Invoke(context.Background(), "vep:Retailer", catalogReq(t))
	if err != nil || resp.IsFault() {
		t.Fatalf("resp=%v err=%v", resp, err)
	}

	reg := tel.Metrics
	checks := []struct {
		name string
		vec  *telemetry.CounterVec
		vals []string
		want uint64
	}{
		{"routes", reg.Counter("masc_bus_invocations_total", "", "route"), []string{"vep"}, 1},
		{"invocations", reg.Counter("masc_vep_invocations_total", "", "vep", "operation", "outcome"),
			[]string{"Retailer", "getCatalog", "ok"}, 1},
		{"faults", reg.Counter("masc_vep_faults_total", "", "vep", "fault_type"),
			[]string{"Retailer", "ServiceUnavailableFault"}, 1},
		{"retries", reg.Counter("masc_vep_retries_total", "", "vep"), []string{"Retailer"}, 2},
		{"failovers", reg.Counter("masc_vep_failovers_total", "", "vep"), []string{"Retailer"}, 1},
		{"adaptations", reg.Counter("masc_vep_adaptations_total", "", "vep", "policy"),
			[]string{"Retailer", "retry-then-failover"}, 1},
	}
	for _, c := range checks {
		if got := c.vec.With(c.vals...).Value(); got != c.want {
			t.Errorf("%s%v = %v, want %v", c.name, c.vals, got, c.want)
		}
	}
	attempts := reg.Counter("masc_vep_attempts_total", "", "vep", "target", "outcome")
	if got := attempts.With("Retailer", "inproc://a", "error").Value(); got != 3 {
		t.Errorf("attempts on bad target = %v, want 3", got)
	}
	if got := attempts.With("Retailer", "inproc://b", "ok").Value(); got != 1 {
		t.Errorf("attempts on good target = %v, want 1", got)
	}
	lat := reg.Histogram("masc_vep_invocation_seconds", "", nil, "vep").With("Retailer")
	if lat.Count() != 1 {
		t.Errorf("latency observations = %d, want 1", lat.Count())
	}

	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`masc_vep_invocations_total{vep="Retailer",operation="getCatalog",outcome="ok"} 1`,
		`masc_vep_retries_total{vep="Retailer"} 2`,
		`masc_vep_failovers_total{vep="Retailer"} 1`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// collectNotes flattens all annotations of a span tree.
func collectNotes(v telemetry.SpanView) []string {
	var out []string
	for _, n := range v.Notes {
		out = append(out, n.Text)
	}
	for _, c := range v.Children {
		out = append(out, collectNotes(c)...)
	}
	return out
}

func TestTelemetryTraceAnnotations(t *testing.T) {
	bad := &scriptedService{failFor: 1000}
	good := &scriptedService{}
	b, _, tel := telemetryBus(t, retryThenFailoverXML, map[string]*scriptedService{
		"inproc://a": bad,
		"inproc://b": good,
	}, VEPConfig{Selection: policy.SelectFirst})

	ctx, root := tel.Tracer.StartTrace(context.Background(), "gateway request")
	resp, err := b.Invoke(ctx, "vep:Retailer", catalogReq(t))
	if err != nil || resp.IsFault() {
		t.Fatalf("resp=%v err=%v", resp, err)
	}
	root.EndErr(nil)

	traces := tel.Tracer.Traces()
	if len(traces) != 1 {
		t.Fatalf("traces = %d, want 1", len(traces))
	}
	view, ok := tel.Tracer.Trace(traces[0].ID)
	if !ok {
		t.Fatal("trace not found by ID")
	}
	if len(view.Root.Children) != 1 || view.Root.Children[0].Name != "vep Retailer" {
		t.Fatalf("root children = %+v", view.Root.Children)
	}
	vep := view.Root.Children[0]
	// initial + 2 retries on a, failover attempt on b = 4 attempt spans.
	if len(vep.Children) != 4 {
		t.Fatalf("attempt spans = %d, want 4", len(vep.Children))
	}
	for _, c := range vep.Children {
		if !strings.HasPrefix(c.Name, "attempt ") {
			t.Fatalf("unexpected child span %q", c.Name)
		}
	}
	notes := strings.Join(collectNotes(view.Root), "\n")
	for _, want := range []string{
		"fault ServiceUnavailableFault classified",
		"retry 1/2 on inproc://a",
		"retry 2/2 on inproc://a",
		"failover inproc://a -> inproc://b",
		"adaptation policy retry-then-failover handled",
	} {
		if !strings.Contains(notes, want) {
			t.Errorf("trace notes missing %q\nnotes:\n%s", want, notes)
		}
	}
}

func TestTelemetryRetryQueueMetrics(t *testing.T) {
	svc := &scriptedService{failFor: 1}
	b, _, tel := telemetryBus(t, "", map[string]*scriptedService{"inproc://a": svc}, VEPConfig{})
	q := b.NewRetryQueueFor(policy.RetryAction{MaxAttempts: 3, Delay: time.Millisecond}, time.Millisecond)
	defer q.Stop()

	done := q.Enqueue("vep:Retailer", catalogReq(t))
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("delivery failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("delivery timed out")
	}

	reg := tel.Metrics
	dels := reg.Counter("masc_retryqueue_deliveries_total", "", "outcome")
	if got := dels.With("delivered").Value(); got != 1 {
		t.Errorf("delivered = %v, want 1", got)
	}
	if got := dels.With("requeued").Value(); got != 1 {
		t.Errorf("requeued = %v, want 1", got)
	}
	if got := reg.Gauge("masc_retryqueue_pending", "").With().Value(); got != 0 {
		t.Errorf("pending gauge = %v, want 0", got)
	}
}
