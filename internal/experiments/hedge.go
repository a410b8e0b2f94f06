package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"github.com/masc-project/masc/internal/bus"
	"github.com/masc-project/masc/internal/faultinject"
	"github.com/masc-project/masc/internal/loadgen"
	"github.com/masc-project/masc/internal/policy"
	"github.com/masc-project/masc/internal/scm"
	"github.com/masc-project/masc/internal/simnet"
	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/telemetry"
	"github.com/masc-project/masc/internal/transport"
)

// HedgeConfig shapes the hedged-invocation tail-latency experiment: a
// preventive variant of the paper's concurrent invocation ("making a
// copy of the message and modifying its route, then invoking multiple
// target services using concurrent invocation threads", §3.1(4))
// applied to QoS degradations rather than detected faults.
type HedgeConfig struct {
	// Requests is the measured request count per mode.
	Requests int
	// Clients is the concurrent client count.
	Clients int
	// Seed makes degradation injection reproducible.
	Seed int64
	// Retailers behind the VEP (default 3).
	Retailers int
	// DegradeP is each retailer's per-invocation probability of a slow
	// outlier (default 0.05 — a 5% tail).
	DegradeP float64
	// DegradeMin/DegradeMax bound the injected outlier delay (defaults
	// 20ms–40ms). The band sits an order of magnitude above the healthy
	// p95 even on a loaded machine, where that p95 reaches 3–5 ms: a
	// lower band lets the p95 hedge trigger fire only after the
	// degraded reply has already arrived.
	DegradeMin, DegradeMax time.Duration
}

func (c *HedgeConfig) fill() {
	if c.Requests <= 0 {
		c.Requests = 2000
	}
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Retailers <= 0 {
		c.Retailers = 3
	}
	if c.DegradeP <= 0 {
		c.DegradeP = 0.05
	}
	if c.DegradeMin <= 0 {
		c.DegradeMin = 20 * time.Millisecond
	}
	if c.DegradeMax <= 0 {
		c.DegradeMax = 40 * time.Millisecond
	}
}

// HedgePoint is one mode's latency distribution.
type HedgePoint struct {
	// Mode is "unhedged" or "hedged".
	Mode string
	// Requests and Failures are client-observed.
	Requests int
	Failures int
	// Mean, P50, P95, P99 summarize successful client latencies.
	Mean, P50, P95, P99 time.Duration
	// HedgesLaunched / HedgesWon are the VEP's hedge counters (zero in
	// the unhedged mode).
	HedgesLaunched uint64
	HedgesWon      uint64
	// Degraded counts measured client replies served by an attempt the
	// injector slowed down (the reply carries its tag). Unhedged, that
	// is every degraded primary; hedged, only those whose hedge lost.
	Degraded int
}

// hedgeProtection configures the hedged mode: second attempt when the
// primary exceeds 1×p95, at most one hedge, statistics trusted after 20
// successful samples per target.
func hedgeProtection() *policy.ProtectionPolicy {
	return &policy.ProtectionPolicy{
		Name: "hedge-tail",
		Hedge: &policy.HedgeSpec{
			AfterFactor: 1,
			MinSamples:  20,
			MaxHedges:   1,
		},
	}
}

// RunHedgeComparison measures getCatalog tail latency through a wsBus
// VEP whose backends suffer random QoS degradations (the paper's
// injected delays), with and without hedged invocations. The claim is
// a count: hedging routes around slow outliers, so far fewer replies
// are served by a degraded attempt, at the cost of a few percent extra
// backend attempts. The p99s are reported alongside.
func RunHedgeComparison(cfg HedgeConfig) ([]HedgePoint, error) {
	cfg.fill()
	var points []HedgePoint
	for _, hedged := range []bool{false, true} {
		p, err := runHedgeMode(cfg, hedged)
		if err != nil {
			return nil, err
		}
		points = append(points, p)
	}
	return points, nil
}

func runHedgeMode(cfg HedgeConfig, hedged bool) (HedgePoint, error) {
	net := transport.NewNetwork()
	injectors := make(map[int]faultinject.Injector, cfg.Retailers)
	for i := 0; i < cfg.Retailers; i++ {
		injectors[i] = faultinject.NewDegradation(
			cfg.DegradeP, cfg.DegradeMin, cfg.DegradeMax, cfg.Seed+int64(i))
	}
	d, err := scm.Deploy(net, nil, scm.DeployConfig{
		Retailers:         cfg.Retailers,
		Link:              simnet.NewLinkProfile(50*time.Microsecond, 8*time.Microsecond, 0.05, cfg.Seed),
		Service:           simnet.ServiceProfile{Base: 100 * time.Microsecond, PerKB: 10 * time.Microsecond},
		RetailerInjectors: injectors,
	})
	if err != nil {
		return HedgePoint{}, err
	}

	tel := telemetry.New(8)
	b := bus.New(d.Net, bus.WithSeed(cfg.Seed), bus.WithTelemetry(tel))
	vcfg := bus.VEPConfig{
		Name:          "Retailer",
		Services:      d.RetailerAddrs,
		Contract:      scm.RetailerContract(),
		Selection:     policy.SelectRoundRobin,
		InvokeTimeout: 2 * time.Second,
	}
	if hedged {
		vcfg.Protection = hedgeProtection()
	}
	if _, err := b.CreateVEP(vcfg); err != nil {
		return HedgePoint{}, err
	}

	// Warmup both measures the workload and — in the hedged mode —
	// fills the QoS tracker past MinSamples so the p95 trigger arms.
	warm := 2 * hedgeProtection().Hedge.MinSamples * cfg.Retailers / cfg.Clients
	var degraded atomic.Int64
	summary := loadgen.Run(context.Background(), loadgen.Config{
		Clients:           cfg.Clients,
		RequestsPerClient: cfg.Requests / cfg.Clients,
		WarmupPerClient:   warm,
	}, func(ctx context.Context, _, seq int) error {
		resp, err := catalogCall(ctx, b, "vep:Retailer")
		if err == nil && seq >= 0 && resp.Header(soap.NamespaceMASC, transport.InjectedHeader) != nil {
			degraded.Add(1)
		}
		return err
	})

	mode := "unhedged"
	if hedged {
		mode = "hedged"
	}
	hedges := tel.Registry().Counter("masc_vep_hedges_total", "", "vep", "outcome")
	return HedgePoint{
		Mode:           mode,
		Requests:       summary.Requests,
		Failures:       summary.Failures,
		Mean:           summary.Mean,
		P50:            summary.P50,
		P95:            summary.P95,
		P99:            summary.P99,
		HedgesLaunched: hedges.With("Retailer", "launched").Value(),
		HedgesWon:      hedges.With("Retailer", "won").Value(),
		Degraded:       int(degraded.Load()),
	}, nil
}

// FormatHedge renders the hedging comparison.
func FormatHedge(points []HedgePoint) string {
	var sb strings.Builder
	sb.WriteString("Hedged invocation: getCatalog tail latency under injected QoS degradations\n")
	sb.WriteString(fmt.Sprintf("  %-10s %-12s %-12s %-12s %-12s %-10s %-10s %s\n",
		"mode", "mean", "p50", "p95", "p99", "hedges", "won", "degraded"))
	for _, p := range points {
		sb.WriteString(fmt.Sprintf("  %-10s %-12v %-12v %-12v %-12v %-10d %-10d %d\n",
			p.Mode, p.Mean.Round(1000), p.P50.Round(1000), p.P95.Round(1000),
			p.P99.Round(1000), p.HedgesLaunched, p.HedgesWon, p.Degraded))
	}
	return sb.String()
}
