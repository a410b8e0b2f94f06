// Package experiments regenerates every quantitative artifact of the
// paper's evaluation (§3.2) on the simulated substrate: Table 1
// (reliability and availability of direct invocations vs wsBus
// mediation), Figure 5 (round-trip time vs request size, direct vs
// bus), the throughput comparison the text describes, and the ablation
// studies DESIGN.md §5 calls out.
//
// Absolute numbers differ from the paper's 2006 testbed; the shapes —
// who wins, by roughly what factor, and where overheads appear — are
// the reproduction target (see EXPERIMENTS.md). Time constants are the
// paper's scaled 4000:1 (the paper's 2 s retry delay becomes 500 µs),
// so full runs finish in about a second while preserving the ratios
// between retry delays, outage durations, and request latencies.
package experiments

import (
	"context"
	"fmt"
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

// Table1Config shapes the reliability/availability experiment.
type Table1Config struct {
	// Requests is the total measured request count per configuration
	// (the paper reports failures per 1000 requests).
	Requests int
	// Clients is the concurrent client count.
	Clients int
	// Seed makes fault injection reproducible.
	Seed int64
	// OutageFractions is each retailer's downtime fraction; defaults
	// approximate the paper's per-retailer failure rates
	// (A=10.5%, B=8.1%, C=1.7%, D=9.1%).
	OutageFractions []float64
	// MeanDown is the mean outage run, in requests at the retailer
	// (default 8 — longer than the full retry cycle's 4 attempts at the
	// same retailer, so failover matters, while short enough that a
	// 2000-request run samples many episodes).
	MeanDown float64
}

func (c *Table1Config) fill() {
	if c.Requests <= 0 {
		c.Requests = 2000
	}
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if len(c.OutageFractions) == 0 {
		c.OutageFractions = []float64{0.105, 0.081, 0.017, 0.091}
	}
	if c.MeanDown <= 0 {
		c.MeanDown = 8
	}
}

// Table1Row is one line of Table 1.
type Table1Row struct {
	// Configuration describes the run ("direct Retailer A", "wsBus VEP").
	Configuration string
	// Requests measured.
	Requests int
	// Failures observed by the client.
	Failures int
	// FailuresPer1000 is the paper's reliability metric.
	FailuresPer1000 float64
	// Availability is MTBF/(MTBF+MTTR) from the client's view, in
	// wall-clock time.
	Availability float64
	// MeanRTT is the mean successful latency (not in the paper's
	// table; reported for context).
	MeanRTT time.Duration
}

// table1Policies is the §3.2 recovery configuration: "retry the
// invocation of the faulty services three times with a delay between
// retry cycles of two seconds [scaled 4000:1 to 500µs]. After exhausting the
// maximum number of allowed retries, the policies configured the VEP
// to route the request message to a different Retailer based on the
// response time gathered from prior interactions." Logging faults are
// skipped ("not business critical").
const table1Policies = `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="scm-recovery">
  <AdaptationPolicy name="retailer-retry-then-failover" subject="vep:Retailer" priority="10" kind="correction">
    <OnEvent type="fault.detected"/>
    <Actions>
      <Retry maxAttempts="3" delay="500us"/>
      <Substitute selection="bestResponseTime"/>
    </Actions>
  </AdaptationPolicy>
  <AdaptationPolicy name="skip-logging" subject="vep:Logging" priority="5" kind="correction">
    <OnEvent type="fault.detected"/>
    <Actions><Skip/></Actions>
  </AdaptationPolicy>
</PolicyDocument>`

// retailerOutages returns retailer i's fault schedule: random outage
// runs with its configured downtime fraction, or nil for a retailer
// that never fails.
func retailerOutages(cfg Table1Config, i int) faultinject.Injector {
	f := cfg.OutageFractions[i]
	if f <= 0 {
		return nil
	}
	inj := faultinject.NewRandomOutages(cfg.MeanDown*(1/f-1), cfg.MeanDown, cfg.Seed+int64(i))
	// Callers take about one request round trip to discover an outage
	// (connection timeout), so a failed attempt costs time as it did on
	// the testbed.
	inj.SetFailureLatency(500 * time.Microsecond)
	return inj
}

// buildSCM deploys the SCM topology with per-retailer random outages.
func buildSCM(cfg Table1Config) (*scm.Deployment, error) {
	net := transport.NewNetwork()
	injectors := make(map[int]faultinject.Injector, len(cfg.OutageFractions))
	for i := range cfg.OutageFractions {
		if inj := retailerOutages(cfg, i); inj != nil {
			injectors[i] = inj
		}
	}
	return scm.Deploy(net, nil, scm.DeployConfig{
		Retailers:         len(cfg.OutageFractions),
		Link:              simnet.NewLinkProfile(50*time.Microsecond, 8*time.Microsecond, 0.05, cfg.Seed),
		Service:           simnet.ServiceProfile{Base: 100 * time.Microsecond, PerKB: 10 * time.Microsecond},
		RetailerInjectors: injectors,
	})
}

// catalogOp builds the getCatalog workload against an invoker.
func catalogOp(invoker transport.Invoker, target string) loadgen.Op {
	return func(ctx context.Context, client, seq int) error {
		_, err := catalogCall(ctx, invoker, target)
		return err
	}
}

// catalogCall invokes getCatalog on target once; a SOAP fault reply is
// an error.
func catalogCall(ctx context.Context, invoker transport.Invoker, target string) (*soap.Envelope, error) {
	env := soap.NewRequest(scm.NewGetCatalogRequest("tv", 0))
	soap.Addressing{To: target, Action: "getCatalog"}.Apply(env)
	resp, err := invoker.Invoke(ctx, target, env)
	if err != nil {
		return nil, err
	}
	if resp.IsFault() {
		return nil, resp.Fault
	}
	return resp, nil
}

// table1Warmup is each client's warm-up before measurement. Every
// client finishes its warm-up before any is measured, so on a direct
// row the retailer's first Clients×table1Warmup requests are the
// warm-up and the rest are measured.
const table1Warmup = 5

// RunTable1 reproduces Table 1: the getCatalog operation invoked
// directly against each individual retailer, then against one wsBus
// VEP grouping all of them.
func RunTable1(cfg Table1Config) ([]Table1Row, error) {
	cfg.fill()
	var rows []Table1Row
	// Direct configurations: "only Retailer X used by the client".
	for i := range cfg.OutageFractions {
		row, err := table1Direct(cfg, i)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}

	// wsBus configuration: all retailers behind one client-side VEP.
	d, err := buildSCM(cfg)
	if err != nil {
		return nil, err
	}
	tel := telemetry.New(8)
	b, err := mediatedBus(d, cfg.Seed, tel)
	if err != nil {
		return nil, err
	}
	summary := loadgen.Run(context.Background(), table1Load(cfg), catalogOp(b, "vep:Retailer"))
	return append(rows, table1Row(
		fmt.Sprintf("wsBus: all %d Retailer services exposed as 1 VEP", len(cfg.OutageFractions)), summary)), nil
}

// table1Direct measures the direct row of retailer i on a fresh
// deployment. Each request reaches the retailer exactly once, so which
// of them fail is fixed by the retailer's schedule and the seed.
func table1Direct(cfg Table1Config, i int) (Table1Row, error) {
	d, err := buildSCM(cfg)
	if err != nil {
		return Table1Row{}, err
	}
	summary := loadgen.Run(context.Background(), table1Load(cfg), catalogOp(d.Net, scm.RetailerAddr(i)))
	return table1Row(fmt.Sprintf("Direct: only Retailer %c used by the client", 'A'+i), summary), nil
}

func table1Load(cfg Table1Config) loadgen.Config {
	return loadgen.Config{
		Clients:           cfg.Clients,
		RequestsPerClient: cfg.Requests / cfg.Clients,
		WarmupPerClient:   table1Warmup,
	}
}

func table1Row(configuration string, s loadgen.Summary) Table1Row {
	_, _, avail := loadgen.Availability(s.Outcomes)
	return Table1Row{
		Configuration:   configuration,
		Requests:        s.Requests,
		Failures:        s.Failures,
		FailuresPer1000: s.FailuresPer1000,
		Availability:    avail,
		MeanRTT:         s.Mean,
	}
}

// mediatedBus builds the client-side wsBus over a deployment, with the
// Table 1 recovery policies and a Retailer VEP grouping every
// deployed retailer (plus the skip-guarded Logging VEP). A non-nil
// tel instruments the bus the way mascd deploys it.
func mediatedBus(d *scm.Deployment, seed int64, tel *telemetry.Telemetry) (*bus.Bus, error) {
	repo := policy.NewRepository()
	if _, err := repo.LoadXML(table1Policies); err != nil {
		return nil, err
	}
	b := bus.New(d.Net, bus.WithPolicyRepository(repo), bus.WithSeed(seed), bus.WithTelemetry(tel))
	if _, err := b.CreateVEP(bus.VEPConfig{
		Name:          "Retailer",
		Services:      d.RetailerAddrs,
		Contract:      scm.RetailerContract(),
		Selection:     policy.SelectRoundRobin,
		InvokeTimeout: 2 * time.Second,
	}); err != nil {
		return nil, err
	}
	if _, err := b.CreateVEP(bus.VEPConfig{
		Name:     "Logging",
		Services: []string{scm.LoggingAddr},
		Contract: scm.LoggingContract(),
	}); err != nil {
		return nil, err
	}
	return b, nil
}
