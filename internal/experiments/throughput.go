package experiments

import (
	"context"
	"time"

	"github.com/masc-project/masc/internal/loadgen"
	"github.com/masc-project/masc/internal/scm"
	"github.com/masc-project/masc/internal/simnet"
	"github.com/masc-project/masc/internal/transport"
)

// ThroughputConfig shapes the throughput comparison (E3): "Throughput
// is defined as the average number of successful requests processed in
// a sampling period" (§3.2).
type ThroughputConfig struct {
	// Concurrency levels swept (default 1,2,4,8,16).
	Concurrency []int
	// RequestsPerClient per level.
	RequestsPerClient int
	// Seed for link jitter.
	Seed int64
}

func (c *ThroughputConfig) fill() {
	if len(c.Concurrency) == 0 {
		c.Concurrency = []int{1, 2, 4, 8, 16}
	}
	if c.RequestsPerClient <= 0 {
		c.RequestsPerClient = 100
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
}

// ThroughputPoint is one concurrency level's result.
type ThroughputPoint struct {
	Concurrency int
	// Requests is the measured request count of each mode; Failures
	// counts the failed ones of both.
	Requests, Failures int
	// DirectRPS and BusRPS are successful requests per second.
	DirectRPS float64
	BusRPS    float64
	// OverheadPct is the relative throughput loss through the bus.
	OverheadPct float64
}

// RunThroughput measures getCatalog throughput at increasing client
// concurrency, direct vs through the wsBus VEP.
func RunThroughput(cfg ThroughputConfig) ([]ThroughputPoint, error) {
	cfg.fill()
	deployment := func() (*scm.Deployment, error) {
		net := transport.NewNetwork()
		return scm.Deploy(net, nil, scm.DeployConfig{
			Retailers: 1,
			Link:      simnet.NewLinkProfile(30*time.Microsecond, 8*time.Microsecond, 0.05, cfg.Seed),
			Service:   simnet.ServiceProfile{Base: 60 * time.Microsecond, PerKB: 6 * time.Microsecond},
		})
	}

	var points []ThroughputPoint
	for _, n := range cfg.Concurrency {
		lg := loadgen.Config{
			Clients:           n,
			RequestsPerClient: cfg.RequestsPerClient,
			WarmupPerClient:   5,
		}
		d, err := deployment()
		if err != nil {
			return nil, err
		}
		direct := loadgen.Run(context.Background(), lg, catalogOp(d.Net, scm.RetailerAddr(0)))

		d2, err := deployment()
		if err != nil {
			return nil, err
		}
		b, err := figure5Bus(d2)
		if err != nil {
			return nil, err
		}
		mediated := loadgen.Run(context.Background(), lg, catalogOp(b, "vep:Retailer"))

		p := ThroughputPoint{
			Concurrency: n,
			Requests:    min(direct.Requests, mediated.Requests),
			Failures:    direct.Failures + mediated.Failures,
			DirectRPS:   direct.Throughput,
			BusRPS:      mediated.Throughput,
		}
		if direct.Throughput > 0 {
			p.OverheadPct = 100 * (direct.Throughput - mediated.Throughput) / direct.Throughput
		}
		points = append(points, p)
	}
	return points, nil
}
