package experiments

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/masc-project/masc/internal/bus"
	"github.com/masc-project/masc/internal/faultinject"
	"github.com/masc-project/masc/internal/loadgen"
	"github.com/masc-project/masc/internal/policy"
	"github.com/masc-project/masc/internal/scm"
	"github.com/masc-project/masc/internal/telemetry"
	"github.com/masc-project/masc/internal/transport"
)

// RetrySweepPoint is one retry-budget configuration's outcome (E8a):
// how the VEP's failure rate falls as the retry budget grows, with and
// without failover as the backstop.
type RetrySweepPoint struct {
	MaxAttempts     int
	Failover        bool
	FailuresPer1000 float64
	MeanRTT         time.Duration
}

// RunRetrySweep sweeps the Retry action's MaxAttempts (0..4) against
// the Table 1 fault profile, with and without the Substitute backstop.
func RunRetrySweep(cfg Table1Config) ([]RetrySweepPoint, error) {
	cfg.fill()
	var points []RetrySweepPoint
	for _, failover := range []bool{false, true} {
		for attempts := 0; attempts <= 4; attempts++ {
			p, err := runRetryPoint(cfg, attempts, failover)
			if err != nil {
				return nil, err
			}
			points = append(points, p)
		}
	}
	return points, nil
}

// runRetryPoint measures one retry budget. Without failover it runs one
// client: each request's retries then follow it back to back at its
// round-robin retailer, so the seed alone fixes which requests fail.
// With failover, bestResponseTime picks by measured timings anyway.
func runRetryPoint(cfg Table1Config, attempts int, failover bool) (RetrySweepPoint, error) {
	d, err := buildSCM(cfg)
	if err != nil {
		return RetrySweepPoint{}, err
	}
	actions := ""
	if attempts > 0 {
		actions += fmt.Sprintf(`<Retry maxAttempts="%d" delay="500us"/>`, attempts)
	}
	if failover {
		actions += `<Substitute selection="bestResponseTime"/>`
	}
	if actions == "" {
		actions = `<Retry maxAttempts="0"/>` // policy needs >=1 action
	}
	b, err := recoveryBus(d, cfg.Seed, actions)
	if err != nil {
		return RetrySweepPoint{}, err
	}
	clients := 1
	if failover {
		clients = cfg.Clients
	}
	lg := loadgen.Config{Clients: clients, RequestsPerClient: cfg.Requests / clients}
	s := loadgen.Run(context.Background(), lg, catalogOp(b, "vep:Retailer"))
	return RetrySweepPoint{
		MaxAttempts:     attempts,
		Failover:        failover,
		FailuresPer1000: s.FailuresPer1000,
		MeanRTT:         s.Mean,
	}, nil
}

// recoveryBus builds a wsBus over d whose Retailer VEP (round-robin
// over every retailer) recovers from faults with the given actions.
func recoveryBus(d *scm.Deployment, seed int64, actions string) (*bus.Bus, error) {
	repo := policy.NewRepository()
	if _, err := repo.LoadXML(fmt.Sprintf(`
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="recovery">
  <AdaptationPolicy name="recover" subject="vep:Retailer" priority="5">
    <OnEvent type="fault.detected"/>
    <Actions>%s</Actions>
  </AdaptationPolicy>
</PolicyDocument>`, actions)); err != nil {
		return nil, err
	}
	tel := telemetry.New(8)
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
	return b, nil
}

// SelectionPoint compares selection/recovery strategies under the
// Table 1 fault profile (E8b).
type SelectionPoint struct {
	Strategy        string
	FailuresPer1000 float64
	MeanRTT         time.Duration
}

// RunSelectionComparison compares recovery strategies: plain
// round-robin retries, best-QoS failover, and concurrent broadcast.
func RunSelectionComparison(cfg Table1Config) ([]SelectionPoint, error) {
	cfg.fill()
	strategies := []struct {
		name    string
		actions string
	}{
		{"retry-only", `<Retry maxAttempts="3" delay="500us"/>`},
		{"failover-first", `<Substitute selection="first"/>`},
		{"failover-bestQoS", `<Substitute selection="bestResponseTime"/>`},
		{"broadcast-first-response", `<ConcurrentInvoke/>`},
		{"retry-then-failover", `<Retry maxAttempts="3" delay="500us"/><Substitute selection="bestResponseTime"/>`},
	}
	var points []SelectionPoint
	for _, st := range strategies {
		d, err := buildSCM(cfg)
		if err != nil {
			return nil, err
		}
		b, err := recoveryBus(d, cfg.Seed, st.actions)
		if err != nil {
			return nil, err
		}
		lg := loadgen.Config{Clients: cfg.Clients, RequestsPerClient: cfg.Requests / cfg.Clients}
		s := loadgen.Run(context.Background(), lg, catalogOp(b, "vep:Retailer"))
		points = append(points, SelectionPoint{
			Strategy:        st.name,
			FailuresPer1000: s.FailuresPer1000,
			MeanRTT:         s.Mean,
		})
	}
	return points, nil
}

// ReparsePoint compares the object policy repository against per-fault
// re-parsing (E8c) — the paper's planned .NET optimization: "we will
// minimize this overhead by working with object representation of
// policies, which is updated only when policies change" (§3.2).
type ReparsePoint struct {
	Mode    string
	MeanRTT time.Duration
	// Parses counts the policy-XML parses the arm performed over the
	// whole run: the deterministic form of the ablation's claim.
	Parses int
}

// RunReparseAblation isolates the decision path: a deployment with no
// simulated network or processing latency whose primary retailer
// always faults, so every request runs fault classification, policy
// lookup, and failover. The measured RTT is then dominated by the
// middleware's own CPU cost, exposing the price of re-parsing policy
// XML per decision versus consulting the object repository.
func RunReparseAblation(cfg Table1Config) ([]ReparsePoint, error) {
	cfg.fill()
	run := func(mode string, opts ...bus.Option) (ReparsePoint, error) {
		net := transport.NewNetwork()
		d, err := scm.Deploy(net, nil, scm.DeployConfig{
			Retailers: 2,
			RetailerInjectors: map[int]faultinject.Injector{
				0: faultinject.NewFailureRate(1.0, cfg.Seed),
			},
		})
		if err != nil {
			return ReparsePoint{}, err
		}
		b := bus.New(d.Net, append(opts, bus.WithSeed(cfg.Seed))...)
		if _, err := b.CreateVEP(bus.VEPConfig{
			Name:          "Retailer",
			Services:      d.RetailerAddrs,
			Contract:      scm.RetailerContract(),
			Selection:     policy.SelectFirst,
			InvokeTimeout: 2 * time.Second,
		}); err != nil {
			return ReparsePoint{}, err
		}
		lg := loadgen.Config{Clients: 1, RequestsPerClient: cfg.Requests, WarmupPerClient: 20}
		s := loadgen.Run(context.Background(), lg, catalogOp(b, "vep:Retailer"))
		return ReparsePoint{Mode: mode, MeanRTT: s.Mean}, nil
	}

	// Failover-only policy: no retry delays, so the measurement is the
	// middleware's CPU path, not sleeps.
	const failoverOnly = `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="reparse-ablation">
  <AdaptationPolicy name="failover" subject="vep:Retailer" priority="10">
    <OnEvent type="fault.detected"/>
    <Actions><Substitute selection="first"/></Actions>
  </AdaptationPolicy>
</PolicyDocument>`

	var objParses, reparses atomic.Int64
	parse := func(n *atomic.Int64) (*policy.Repository, error) {
		n.Add(1)
		r := policy.NewRepository()
		_, err := r.LoadXML(failoverOnly)
		return r, err
	}
	objRepo, err := parse(&objParses)
	if err != nil {
		return nil, err
	}

	// Alternate the arms over several rounds and keep each arm's best
	// mean: a contention spike (CPU steal, GC) then penalizes one round,
	// not a whole arm, so the reported difference is the systematic
	// re-parse cost rather than scheduling noise.
	const rounds = 3
	objPoint := ReparsePoint{Mode: "object-repository"}
	reparsePoint := ReparsePoint{Mode: "reparse-per-decision"}
	for i := 0; i < rounds; i++ {
		op, err := run("object-repository", bus.WithPolicyRepository(objRepo))
		if err != nil {
			return nil, err
		}
		rp, err := run("reparse-per-decision", bus.WithPolicySource(func() *policy.Repository {
			r, _ := parse(&reparses)
			return r
		}))
		if err != nil {
			return nil, err
		}
		if objPoint.MeanRTT == 0 || op.MeanRTT < objPoint.MeanRTT {
			objPoint.MeanRTT = op.MeanRTT
		}
		if reparsePoint.MeanRTT == 0 || rp.MeanRTT < reparsePoint.MeanRTT {
			reparsePoint.MeanRTT = rp.MeanRTT
		}
	}
	objPoint.Parses, reparsePoint.Parses = int(objParses.Load()), int(reparses.Load())
	return []ReparsePoint{objPoint, reparsePoint}, nil
}

// ListenerPoint compares the listener serving models (E8d): the Java
// wsBus's thread-per-request vs the planned worker pool (§3.2).
type ListenerPoint struct {
	Mode       string
	Throughput float64
}

// RunListenerAblation measures throughput through a goroutine-per-
// request listener vs a fixed worker pool at high concurrency.
func RunListenerAblation(cfg ThroughputConfig) ([]ListenerPoint, error) {
	cfg.fill()
	run := func(mode string, workers int) (ListenerPoint, error) {
		d, err := buildSCM(Table1Config{Requests: 1, Clients: 1, Seed: cfg.Seed,
			OutageFractions: []float64{0}})
		if err != nil {
			return ListenerPoint{}, err
		}
		b, err := figure5Bus(d)
		if err != nil {
			return ListenerPoint{}, err
		}
		l := bus.NewListener(b, workers)
		defer l.Close()
		lg := loadgen.Config{Clients: 16, RequestsPerClient: cfg.RequestsPerClient, WarmupPerClient: 5}
		s := loadgen.Run(context.Background(), lg, catalogOp(l, "vep:Retailer"))
		return ListenerPoint{Mode: mode, Throughput: s.Throughput}, nil
	}
	spawn, err := run("goroutine-per-request", 0)
	if err != nil {
		return nil, err
	}
	pool, err := run("worker-pool-8", 8)
	if err != nil {
		return nil, err
	}
	return []ListenerPoint{spawn, pool}, nil
}
