package experiments

import (
	"context"
	"fmt"
	"time"

	"github.com/masc-project/masc/internal/bus"
	"github.com/masc-project/masc/internal/loadgen"
	"github.com/masc-project/masc/internal/policy"
	"github.com/masc-project/masc/internal/scm"
	"github.com/masc-project/masc/internal/simnet"
	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/transport"
)

// Figure5Config shapes the RTT-vs-request-size experiment.
type Figure5Config struct {
	// SizesKB are the request payload sizes swept (default
	// 1..64 KB in powers of two, like the paper's growing request
	// sizes).
	SizesKB []int
	// RequestsPerPoint is the measured request count per data point
	// (the paper averages "three independent runs of up to 2000
	// requests each"; we run one longer measured phase per point).
	RequestsPerPoint int
	// Clients is the concurrent client count; the paper drives load
	// with zero think time.
	Clients int
	// Seed for link jitter.
	Seed int64
}

func (c *Figure5Config) fill() {
	if len(c.SizesKB) == 0 {
		c.SizesKB = []int{1, 2, 4, 8, 16, 32, 64}
	}
	if c.RequestsPerPoint <= 0 {
		c.RequestsPerPoint = 200
	}
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
}

// Figure5Point is one point on a Figure 5 curve.
type Figure5Point struct {
	// Operation is "getCatalog" or "submitOrder".
	Operation string
	// SizeKB is the request padding size.
	SizeKB int
	// DirectRTT is the mean round-trip time without wsBus.
	DirectRTT time.Duration
	// BusRTT is the mean round-trip time through the wsBus VEP.
	BusRTT time.Duration
	// OverheadPct is 100*(BusRTT-DirectRTT)/DirectRTT.
	OverheadPct float64
}

// The paper's 100 Mb/s LAN: ~80 µs/KB serialization, small base
// latency (and 5% jitter); and the Retailer's processing cost.
const figure5LinkBase, figure5LinkPerKB = 100 * time.Microsecond, 80 * time.Microsecond

var figure5Service = simnet.ServiceProfile{Base: 200 * time.Microsecond, PerKB: 20 * time.Microsecond}

// figure5Op builds one measured operation of the sweep.
func figure5Op(invoker transport.Invoker, target, operation string, sizeKB int) loadgen.Op {
	padding := sizeKB * 1024
	return func(ctx context.Context, client, seq int) error {
		var env *soap.Envelope
		if operation == "getCatalog" {
			env = soap.NewRequest(scm.NewGetCatalogRequest("tv", padding))
		} else {
			env = soap.NewRequest(scm.NewSubmitOrderRequest(
				fmt.Sprintf("C%d-%d", client, seq),
				[]scm.OrderItem{{SKU: "605001", Qty: 1}},
				padding,
			))
		}
		soap.Addressing{To: target, Action: operation}.Apply(env)
		resp, err := invoker.Invoke(ctx, target, env)
		if err != nil {
			return err
		}
		if resp.IsFault() {
			return resp.Fault
		}
		return nil
	}
}

// RunFigure5 reproduces Figure 5: mean RTT for getCatalog and
// submitOrder across request sizes, with direct point-to-point
// invocations vs channeling through a wsBus VEP with its QoS features
// (message logging, contract monitoring, QoS measurement) enabled.
func RunFigure5(cfg Figure5Config) ([]Figure5Point, error) {
	cfg.fill()

	// Fault-free deployment on the scaled 100 Mb LAN profile, huge
	// initial stock so submitOrder never back-orders mid-sweep.
	deployment := func() (*scm.Deployment, error) {
		net := transport.NewNetwork()
		return scm.Deploy(net, nil, scm.DeployConfig{
			Retailers:    1,
			InitialStock: 1 << 30,
			Link:         simnet.NewLinkProfile(figure5LinkBase, figure5LinkPerKB, 0.05, cfg.Seed),
			Service:      figure5Service,
		})
	}

	var points []Figure5Point
	for _, op := range []string{"getCatalog", "submitOrder"} {
		for _, size := range cfg.SizesKB {
			d, err := deployment()
			if err != nil {
				return nil, err
			}
			lg := loadgen.Config{
				Clients:           cfg.Clients,
				RequestsPerClient: cfg.RequestsPerPoint / cfg.Clients,
				WarmupPerClient:   5,
			}

			direct := loadgen.Run(context.Background(),
				lg, figure5Op(d.Net, scm.RetailerAddr(0), op, size))

			d2, err := deployment()
			if err != nil {
				return nil, err
			}
			b, err := figure5Bus(d2)
			if err != nil {
				return nil, err
			}
			mediated := loadgen.Run(context.Background(),
				lg, figure5Op(b, "vep:Retailer", op, size))

			point := Figure5Point{
				Operation: op,
				SizeKB:    size,
				DirectRTT: direct.Mean,
				BusRTT:    mediated.Mean,
			}
			if direct.Mean > 0 {
				point.OverheadPct = 100 * float64(mediated.Mean-direct.Mean) / float64(direct.Mean)
			}
			points = append(points, point)
		}
	}
	return points, nil
}

// figure5Bus mediates through a VEP with the QoS features the paper
// attributes wsBus's overhead to: message logging, contract
// validation, monitoring, and QoS measurement.
func figure5Bus(d *scm.Deployment) (*bus.Bus, error) {
	repo := policy.NewRepository()
	if _, err := repo.LoadXML(`
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="fig5-monitoring">
  <MonitoringPolicy name="catalog-postcondition" subject="vep:Retailer" operation="getCatalog">
    <PostCondition name="has-products">count(//Product) > 0</PostCondition>
  </MonitoringPolicy>
</PolicyDocument>`); err != nil {
		return nil, err
	}
	b := bus.New(d.Net, bus.WithPolicyRepository(repo))
	v, err := b.CreateVEP(bus.VEPConfig{
		Name:          "Retailer",
		Services:      d.RetailerAddrs,
		Contract:      scm.RetailerContract(),
		Selection:     policy.SelectFirst,
		InvokeTimeout: 30 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	v.Pipeline().Append(bus.NewMessageLogger(time.Now, 1<<16))
	v.Pipeline().Append(&bus.ValidatorModule{Contract: scm.RetailerContract()})
	return b, nil
}
