package experiments

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/masc-project/masc/internal/scm"
	"github.com/masc-project/masc/internal/simnet"
	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/transport"
)

// TestTable1Shape asserts the paper's qualitative result (E1): every
// direct configuration loses requests roughly in proportion to its
// injected outage fraction, and the wsBus VEP with retry+failover is
// far more reliable than the *average* direct retailer and no worse
// than the best one.
func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full reliability run")
	}
	cfg := Table1Config{Requests: 1000, Clients: 4, Seed: 7}
	rows, err := RunTable1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}

	direct := rows[:4]
	vep := rows[4]

	// Direct failure rates roughly track the injected fractions
	// (A=10.5%, B=8.1%, C=1.7%, D=9.1%) within generous bounds. The
	// lower bound only applies to the lossy retailers: C's outages are
	// so rare (MTBF ≈ 1.4 s at this scale) that a short run may
	// legitimately see none.
	fractions := []float64{0.105, 0.081, 0.017, 0.091}
	for i, r := range direct {
		want := fractions[i] * 1000
		if r.FailuresPer1000 > want*2.5+10 {
			t.Errorf("%s: failures per 1000 = %.1f, injected fraction implies ~%.0f",
				r.Configuration, r.FailuresPer1000, want)
		}
		if want >= 50 && r.FailuresPer1000 < want*0.3 {
			t.Errorf("%s: failures per 1000 = %.1f suspiciously low for fraction %.3f",
				r.Configuration, r.FailuresPer1000, fractions[i])
		}
	}

	// C (1.7%) is the most reliable direct retailer; A (10.5%) among
	// the worst.
	if direct[2].FailuresPer1000 >= direct[0].FailuresPer1000 {
		t.Errorf("retailer C (%.1f) should beat retailer A (%.1f)",
			direct[2].FailuresPer1000, direct[0].FailuresPer1000)
	}

	// The VEP beats the mean direct retailer by a wide margin (the
	// paper: 6 vs 17..105) and is at least as good as the best one.
	var meanDirect float64
	for _, r := range direct {
		meanDirect += r.FailuresPer1000
	}
	meanDirect /= 4
	if vep.FailuresPer1000 > meanDirect/3 {
		t.Errorf("VEP failures per 1000 = %.1f, want ≲ mean direct (%.1f) / 3",
			vep.FailuresPer1000, meanDirect)
	}
	if vep.FailuresPer1000 > direct[2].FailuresPer1000+5 {
		t.Errorf("VEP (%.1f) should be comparable to best direct retailer (%.1f)",
			vep.FailuresPer1000, direct[2].FailuresPer1000)
	}

	// Availability mirrors reliability: VEP ≥ worst direct.
	if vep.Availability < direct[0].Availability {
		t.Errorf("VEP availability %.3f below retailer A's %.3f",
			vep.Availability, direct[0].Availability)
	}

	out := FormatTable1(rows)
	if !strings.Contains(out, "wsBus") || !strings.Contains(out, "failures per 1000") {
		t.Fatalf("format output:\n%s", out)
	}
	t.Logf("\n%s", out)
}

// TestFigure5Shape asserts the Figure 5 qualitative result (E2): RTT
// grows with request size for both operations. Growth is asserted on
// the delay the simulated link and service profiles charge the
// requests the sweep sends; the measured wall-clock RTTs of both deployment modes
// and the bus overhead (the paper reports "usually about 10%, which is
// not drastic") are ratios of means that swing with whatever else the
// box is running, so they are logged, not asserted.
func TestFigure5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full RTT sweep")
	}
	cfg := Figure5Config{SizesKB: []int{1, 8, 32}, RequestsPerPoint: 120, Clients: 4, Seed: 7}
	points, err := RunFigure5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("points = %d", len(points))
	}

	byOp := map[string][]Figure5Point{}
	for _, p := range points {
		byOp[p.Operation] = append(byOp[p.Operation], p)
	}
	for op, series := range byOp {
		var prev time.Duration
		for _, p := range series {
			model := figure5Model(t, op, p.SizeKB)
			if model <= prev {
				t.Errorf("%s modelled RTT not growing with size: %v then %v at %d KB", op, prev, model, p.SizeKB)
			}
			prev = model
			t.Logf("%s %dKB: modelled %v, direct %v, bus %v", op, p.SizeKB, model, p.DirectRTT, p.BusRTT)
		}
	}
	t.Logf("\n%s", FormatFigure5(points))
}

// figure5Model is the delay the sweep's link (without jitter) and
// service profiles charge one of its requests and the reply: figure5Op
// sends the request to a delay-free deployment of the same Retailer
// through a sizer.
func figure5Model(t *testing.T, operation string, sizeKB int) time.Duration {
	t.Helper()
	d, err := scm.Deploy(transport.NewNetwork(), nil, scm.DeployConfig{Retailers: 1, InitialStock: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	sz := &sizer{next: d.Net}
	if err := figure5Op(sz, scm.RetailerAddr(0), operation, sizeKB)(context.Background(), 0, 0); err != nil {
		t.Fatal(err)
	}
	link := simnet.NewLinkProfile(figure5LinkBase, figure5LinkPerKB, 0, 0)
	return figure5Service.ProcessingTime(sz.req) + link.Delay(sz.req) + link.Delay(sz.resp)
}

// sizer is an Invoker that forwards to next and keeps the encoded sizes
// of the last request and reply, which the delay profiles charge for.
type sizer struct {
	next      transport.Invoker
	req, resp int
}

func (s *sizer) Invoke(ctx context.Context, addr string, env *soap.Envelope) (*soap.Envelope, error) {
	text, err := env.Encode()
	if err != nil {
		return nil, err
	}
	s.req = len(text)
	resp, err := s.next.Invoke(ctx, addr, env)
	if err != nil {
		return nil, err
	}
	if text, err = resp.Encode(); err != nil {
		return nil, err
	}
	s.resp = len(text)
	return resp, nil
}

func TestThroughputShape(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput sweep")
	}
	points, err := RunThroughput(ThroughputConfig{Concurrency: []int{1, 4}, RequestsPerClient: 80, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.DirectRPS <= 0 || p.BusRPS <= 0 {
			t.Fatalf("non-positive throughput: %+v", p)
		}
	}
	// More clients → more total throughput in both modes (closed loop
	// over a simulated-latency service).
	if points[1].DirectRPS <= points[0].DirectRPS {
		t.Errorf("direct throughput did not scale: %v", points)
	}
	t.Logf("\n%s", FormatThroughput(points))
}

func TestRetrySweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation")
	}
	points, err := RunRetrySweep(Table1Config{Requests: 400, Clients: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 10 {
		t.Fatalf("points = %d", len(points))
	}
	// With failover enabled, failures at any retry budget are no worse
	// than triple the no-failover equivalent... in practice far lower.
	noFail := points[:5]
	withFail := points[5:]
	for i := range withFail {
		if withFail[i].FailuresPer1000 > noFail[i].FailuresPer1000+20 {
			t.Errorf("failover made things worse at %d retries: %.1f vs %.1f",
				withFail[i].MaxAttempts, withFail[i].FailuresPer1000, noFail[i].FailuresPer1000)
		}
	}
	t.Logf("\n%s", FormatRetrySweep(points))
}

func TestFormatHelpersRenderAllSections(t *testing.T) {
	sel := FormatSelection([]SelectionPoint{{Strategy: "x", FailuresPer1000: 1, MeanRTT: time.Millisecond}})
	if !strings.Contains(sel, "strategy") {
		t.Fatal(sel)
	}
	rep := FormatReparse([]ReparsePoint{{Mode: "object-repository", MeanRTT: time.Millisecond}})
	if !strings.Contains(rep, "object-repository") {
		t.Fatal(rep)
	}
	lis := FormatListener([]ListenerPoint{{Mode: "worker-pool-8", Throughput: 10}})
	if !strings.Contains(lis, "worker-pool-8") {
		t.Fatal(lis)
	}
}
