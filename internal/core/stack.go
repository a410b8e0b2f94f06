package core

import (
	"github.com/masc-project/masc/internal/bus"
	"github.com/masc-project/masc/internal/clock"
	"github.com/masc-project/masc/internal/event"
	"github.com/masc-project/masc/internal/monitor"
	"github.com/masc-project/masc/internal/policy"
	"github.com/masc-project/masc/internal/qos"
	"github.com/masc-project/masc/internal/registry"
	"github.com/masc-project/masc/internal/store"
	"github.com/masc-project/masc/internal/telemetry"
	"github.com/masc-project/masc/internal/telemetry/decision"
	"github.com/masc-project/masc/internal/transport"
	"github.com/masc-project/masc/internal/workflow"
)

// Stack is the fully wired MASC middleware: the Figure 1 architecture
// assembled over a downstream transport. Process invokes flow through
// the bus (gateway deployment), monitoring events flow to the decision
// maker, and the adaptation service bridges both layers.
type Stack struct {
	// Events is the shared cross-layer event bus.
	Events *event.Bus
	// Policies is the WS-Policy4MASC repository.
	Policies *policy.Repository
	// Tracker is the QoS measurement service.
	Tracker *qos.Tracker
	// Monitor is the monitoring service (with MonitoringStore).
	Monitor *monitor.Monitor
	// Bus is the wsBus messaging layer.
	Bus *bus.Bus
	// Engine is the workflow engine; its invoker is the Bus.
	Engine *workflow.Engine
	// Adaptation is the MASCAdaptationService.
	Adaptation *AdaptationService
	// Decisions is the MASCPolicyDecisionMaker (already subscribed).
	Decisions *DecisionMaker
	// Ledger books business value (already subscribed).
	Ledger *Ledger
	// Registry is the service directory backing dynamic selection.
	Registry *registry.Registry
	// Telemetry is the observability hub (nil unless WithTelemetry).
	Telemetry *telemetry.Telemetry
	// Provenance is the decision-record recorder wired through every
	// evaluation site (nil unless WithDecisionRecorder).
	Provenance *decision.Recorder

	clk         clock.Clock
	unsubscribe []func()
}

// StackOption configures NewStack.
type StackOption func(*stackConfig)

type stackConfig struct {
	clk       clock.Clock
	repo      *policy.Repository
	seed      int64
	tel       *telemetry.Telemetry
	decisions *decision.Recorder
	store     *store.Store
}

// WithClock injects the time source used by every component.
func WithClock(clk clock.Clock) StackOption {
	return func(c *stackConfig) { c.clk = clk }
}

// WithPolicyRepository supplies a pre-loaded repository.
func WithPolicyRepository(repo *policy.Repository) StackOption {
	return func(c *stackConfig) { c.repo = repo }
}

// WithSeed seeds randomized strategies.
func WithSeed(seed int64) StackOption {
	return func(c *stackConfig) { c.seed = seed }
}

// WithDecisionRecorder wires one decision-provenance recorder through
// every policy-evaluation site: monitoring checks, the DecisionMaker's
// adaptation matching, and the bus protection/recovery paths.
func WithDecisionRecorder(rec *decision.Recorder) StackOption {
	return func(c *stackConfig) { c.decisions = rec }
}

// WithTelemetry wires one observability hub through every layer:
// messaging metrics and spans (bus), process metrics and per-instance
// traces (engine), adaptation counters (core services), and an event-
// bus tap turning cross-layer events into trace annotations.
func WithTelemetry(tel *telemetry.Telemetry) StackOption {
	return func(c *stackConfig) { c.tel = tel }
}

// WithStore gives the bus a durable store, so its retry queues and
// dead-letter queues survive a restart. Nil leaves them in memory.
func WithStore(st *store.Store) StackOption {
	return func(c *stackConfig) { c.store = st }
}

// NewStack assembles the middleware over a downstream transport
// (typically a transport.Network in experiments, or HTTP invokers in
// real deployments), in this order: event bus → bus (with its QoS
// tracker and monitor) → engine → adaptation service → decision maker
// → ledger → trace tap. The adaptation service is the engine's first
// runtime service, so a persistence service attached afterwards
// checkpoints instances after static customization.
func NewStack(downstream transport.Invoker, opts ...StackOption) *Stack {
	cfg := stackConfig{clk: clock.New(), seed: 1}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.repo == nil {
		cfg.repo = policy.NewRepository()
	}

	events := event.NewBus()
	b := bus.New(downstream,
		bus.WithClock(cfg.clk),
		bus.WithEventBus(events),
		bus.WithPolicyRepository(cfg.repo),
		bus.WithSeed(cfg.seed),
		bus.WithTelemetry(cfg.tel),
		bus.WithDecisions(cfg.decisions),
		bus.WithStore(cfg.store),
	)
	tracker := b.Tracker()

	reg := registry.New()
	resolver := workflow.ResolverFunc(func(serviceType string) (string, error) {
		// Dynamic Find/Select/Bind: prefer the best measured performer
		// among registered implementations, falling back to the first.
		addrs, err := reg.Addresses(serviceType)
		if err != nil {
			return "", err
		}
		if best, ok := tracker.Best(addrs, 1); ok {
			return best, nil
		}
		return addrs[0], nil
	})

	engine := workflow.NewEngine(b,
		workflow.WithClock(cfg.clk),
		workflow.WithEventBus(events),
		workflow.WithResolver(resolver),
		workflow.WithTelemetry(cfg.tel),
	)

	adapt := newAdaptationService(engine, cfg.repo, events, b.Monitor().Store(), cfg.clk, cfg.tel, cfg.decisions)
	engine.AddRuntimeService(adapt)
	b.SetProcessAdapter(adapt)

	decisions, unDecide := newDecisionMaker(adapt, events, cfg.tel)

	ledger := NewLedger()
	unLedger := ledger.Attach(events)

	unTap := cfg.tel.Traces().TapEventBus(events)

	return &Stack{
		Events:      events,
		Policies:    cfg.repo,
		Tracker:     tracker,
		Monitor:     b.Monitor(),
		Bus:         b,
		Engine:      engine,
		Adaptation:  adapt,
		Decisions:   decisions,
		Ledger:      ledger,
		Registry:    reg,
		Telemetry:   cfg.tel,
		Provenance:  cfg.decisions,
		clk:         cfg.clk,
		unsubscribe: []func(){unDecide, unLedger, unTap},
	}
}

// Close detaches the stack's subscribers and abandons pending delayed
// resumes (AdaptationService.Close). It is idempotent.
func (s *Stack) Close() {
	for _, un := range s.unsubscribe {
		un()
	}
	s.Adaptation.Close()
}

// Clock returns the stack's time source.
func (s *Stack) Clock() clock.Clock { return s.clk }

// LoadPolicies parses and loads a WS-Policy4MASC document into the
// shared repository.
func (s *Stack) LoadPolicies(xmlText string) error {
	_, err := s.Policies.LoadXML(xmlText)
	return err
}
