package bus

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/masc-project/masc/internal/clock"
	"github.com/masc-project/masc/internal/event"
	"github.com/masc-project/masc/internal/monitor"
	"github.com/masc-project/masc/internal/policy"
	"github.com/masc-project/masc/internal/policy/compile"
	"github.com/masc-project/masc/internal/qos"
	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/store"
	"github.com/masc-project/masc/internal/telemetry"
	"github.com/masc-project/masc/internal/telemetry/decision"
	"github.com/masc-project/masc/internal/transport"
)

// Errors reported by the bus.
var (
	// ErrUnknownVEP reports addressing a VEP that was never created.
	ErrUnknownVEP = errors.New("bus: unknown virtual endpoint")
	// ErrDuplicateVEP reports creating two VEPs with one name.
	ErrDuplicateVEP = errors.New("bus: duplicate virtual endpoint")
)

// InvocationObserver receives the outcome of every mediated VEP
// invocation — subject ("vep:Name"), success per the monitor's fault
// classification, and end-to-end latency. It is the hook the SLO
// engine attaches through; defined here so the bus stays decoupled
// from the SLO layer. Implementations must be cheap and non-blocking:
// they run on the invocation hot path.
type InvocationObserver interface {
	Observe(subject string, ok bool, latency time.Duration)
}

// ProcessAdapter is the bridge wsBus uses to enact process-layer
// actions and consult process state — implemented by the MASC core's
// adaptation service. It realizes the cross-layer coordination of
// §3.1(3): suspending the calling process instance or raising its
// timeout while the messaging layer recovers.
type ProcessAdapter interface {
	// ExecuteProcessAction enacts one process-layer policy action on
	// the instance correlated with the faulty message.
	ExecuteProcessAction(ctx context.Context, instanceID string, act policy.Action) error
	// AdaptationState returns the instance's MASC adaptation state.
	AdaptationState(instanceID string) (string, bool)
	// SetAdaptationState records a policy's StateAfter.
	SetAdaptationState(instanceID, state string)
}

// Bus is the wsBus message broker. It implements transport.Invoker so
// it can be deployed "either as a gateway to a Process Orchestration
// Engine or ... as a transparent HTTP proxy" (§3.1): in gateway mode
// callers address virtual endpoints ("vep:Name") directly; in proxy
// mode real service addresses are mapped onto VEPs with Proxy and
// unmapped addresses pass through to the downstream transport.
type Bus struct {
	downstream transport.Invoker
	repo       *policy.Repository
	// policySource returns the repository consulted per adaptation
	// decision. The default returns the loaded object repository; the
	// re-parse ablation (DESIGN.md §5.1) substitutes a function that
	// re-parses policy XML on every call, as the paper's Java wsBus
	// effectively did.
	policySource func() *policy.Repository
	monitor      *monitor.Monitor
	tracker      *qos.Tracker
	events       *event.Bus
	clk          clock.Clock
	procAdapter  ProcessAdapter
	seed         int64
	store        *store.Store
	tel          *telemetry.Telemetry
	met          busMetrics
	journal      *telemetry.Journal
	log          *telemetry.Logger
	convIDs      *soap.IDGenerator
	observer     InvocationObserver
	decisions    *decision.Recorder

	mu      sync.RWMutex
	veps    map[string]*VEP
	proxies map[string]string
}

// Option configures a Bus.
type Option func(*Bus)

// WithClock injects the bus time source.
func WithClock(clk clock.Clock) Option {
	return func(b *Bus) { b.clk = clk }
}

// WithEventBus connects bus events (faults, adaptations) to an event
// bus shared with the process layer.
func WithEventBus(ev *event.Bus) Option {
	return func(b *Bus) { b.events = ev }
}

// WithPolicyRepository supplies the policy repository (an empty one is
// created otherwise).
func WithPolicyRepository(repo *policy.Repository) Option {
	return func(b *Bus) { b.repo = repo }
}

// WithQoSTracker supplies the QoS measurement service (one with an
// unbounded window is created otherwise).
func WithQoSTracker(t *qos.Tracker) Option {
	return func(b *Bus) { b.tracker = t }
}

// WithMonitor supplies the monitoring service (one is built from the
// repository, tracker, and event bus otherwise).
func WithMonitor(m *monitor.Monitor) Option {
	return func(b *Bus) { b.monitor = m }
}

// WithSeed seeds randomized selection strategies for reproducibility.
func WithSeed(seed int64) Option {
	return func(b *Bus) { b.seed = seed }
}

// WithTelemetry wires the observability layer: invocation metrics are
// recorded into its registry and VEP/attempt spans are added to traces
// propagated through invocation contexts. Without this option (or with
// a nil hub) instrumentation is disabled.
func WithTelemetry(tel *telemetry.Telemetry) Option {
	return func(b *Bus) { b.tel = tel }
}

// WithPolicySource overrides how the adaptation manager obtains
// policies per decision (ablation hook; see DESIGN.md §5.1).
func WithPolicySource(src func() *policy.Repository) Option {
	return func(b *Bus) { b.policySource = src }
}

// WithDecisions attaches the decision-provenance recorder: protection
// verdicts (admission sheds, breaker transitions, hedge fires) and
// messaging-layer adaptation-policy evaluations leave records, and the
// bus's default monitor records its own policy checks through the same
// recorder. Nil disables capture.
func WithDecisions(d *decision.Recorder) Option {
	return func(b *Bus) { b.decisions = d }
}

// WithStore attaches the durable state store: retry queues built via
// NewRetryQueueFor persist their pending entries and DLQ, so
// undelivered one-way messages survive a middleware restart.
func WithStore(st *store.Store) Option {
	return func(b *Bus) { b.store = st }
}

// New builds a bus over a downstream transport.
func New(downstream transport.Invoker, opts ...Option) *Bus {
	b := &Bus{
		downstream: downstream,
		clk:        clock.New(),
		seed:       1,
		veps:       make(map[string]*VEP),
		proxies:    make(map[string]string),
	}
	for _, opt := range opts {
		opt(b)
	}
	if b.repo == nil {
		b.repo = policy.NewRepository()
	}
	if b.tracker == nil {
		b.tracker = qos.NewTracker(0, qos.WithClock(b.clk))
	}
	if b.monitor == nil {
		monOpts := []monitor.Option{
			monitor.WithClock(b.clk),
			monitor.WithQoSTracker(b.tracker),
			monitor.WithStore(monitor.NewStore(0)),
			monitor.WithJournal(b.tel.Logs()),
			monitor.WithDecisions(b.decisions),
		}
		if b.events != nil {
			monOpts = append(monOpts, monitor.WithEventBus(b.events))
		}
		b.monitor = monitor.New(b.repo, monOpts...)
	}
	if b.policySource == nil {
		repo := b.repo
		b.policySource = func() *policy.Repository { return repo }
	}
	b.met = newBusMetrics(b.tel.Registry())
	b.journal = b.tel.Logs()
	b.log = b.tel.Logger("bus")
	b.convIDs = soap.NewIDGenerator("urn:masc:conv:")
	return b
}

// Telemetry returns the bus's telemetry hub (nil when not wired).
func (b *Bus) Telemetry() *telemetry.Telemetry { return b.tel }

// Policies returns the bus's policy repository.
func (b *Bus) Policies() *policy.Repository { return b.repo }

// Tracker returns the QoS measurement service.
func (b *Bus) Tracker() *qos.Tracker { return b.tracker }

// Monitor returns the monitoring service.
func (b *Bus) Monitor() *monitor.Monitor { return b.monitor }

// Decisions returns the decision-provenance recorder (nil when not
// wired).
func (b *Bus) Decisions() *decision.Recorder { return b.decisions }

// Clock returns the bus time source.
func (b *Bus) Clock() clock.Clock { return b.clk }

// SetProcessAdapter installs the cross-layer adapter after
// construction (the core wires itself in once the engine exists).
func (b *Bus) SetProcessAdapter(pa ProcessAdapter) {
	b.procAdapter = pa
}

// SetInvocationObserver installs the invocation observer after
// construction — the SLO engine is typically derived from the policy
// repository once the VEPs exist. Call before serving traffic.
func (b *Bus) SetInvocationObserver(o InvocationObserver) {
	b.observer = o
}

// CreateVEP creates and registers a virtual endpoint.
func (b *Bus) CreateVEP(cfg VEPConfig) (*VEP, error) {
	if cfg.Name == "" {
		return nil, errors.New("bus: VEP needs a name")
	}
	sel := cfg.Selection
	if sel == "" {
		sel = policy.SelectRoundRobin
	}
	timeout := cfg.InvokeTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	minSamples := cfg.MinQoSSamples
	if minSamples <= 0 {
		minSamples = 1
	}
	v := &VEP{
		name:          cfg.Name,
		bus:           b,
		contract:      cfg.Contract,
		sel:           newSelector(sel, b.tracker, minSamples, b.seed),
		invokeTimeout: timeout,
		demoted:       make(map[string]time.Time),
	}
	v.services = append(v.services, cfg.Services...)
	pp := cfg.Protection
	if pp == nil {
		pp = compile.Lookup(b.repo).ProtectionFor(v.Subject())
	}
	if pp != nil {
		v.ApplyProtection(pp)
	}

	b.mu.Lock()
	defer b.mu.Unlock()
	if _, exists := b.veps[cfg.Name]; exists {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateVEP, cfg.Name)
	}
	b.veps[cfg.Name] = v
	return v, nil
}

// VEP returns a created VEP by name.
func (b *Bus) VEP(name string) (*VEP, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	v, ok := b.veps[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownVEP, name)
	}
	return v, nil
}

// VEPs returns the names of all virtual endpoints, sorted.
func (b *Bus) VEPs() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]string, 0, len(b.veps))
	for n := range b.veps {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Proxy maps a real service address onto a VEP (transparent-proxy
// deployment): invocations of realAddr are mediated by the VEP.
func (b *Bus) Proxy(realAddr, vepName string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.veps[vepName]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownVEP, vepName)
	}
	b.proxies[realAddr] = vepName
	return nil
}

var _ transport.Invoker = (*Bus)(nil)

// Invoke implements transport.Invoker. Addresses resolve in order:
// explicit VEP addresses ("vep:Name"), proxied real addresses, and
// finally pass-through to the downstream transport.
func (b *Bus) Invoke(ctx context.Context, addr string, req *soap.Envelope) (*soap.Envelope, error) {
	if name, ok := strings.CutPrefix(addr, SubjectPrefix); ok {
		v, err := b.VEP(name)
		if err != nil {
			return nil, err
		}
		b.met.routes.With("vep").Inc()
		return v.Invoke(ctx, addr, req)
	}
	b.mu.RLock()
	vepName, proxied := b.proxies[addr]
	b.mu.RUnlock()
	if proxied {
		v, err := b.VEP(vepName)
		if err != nil {
			return nil, err
		}
		b.met.routes.With("proxy").Inc()
		return v.Invoke(ctx, addr, req)
	}
	b.met.routes.With("passthrough").Inc()
	return b.downstream.Invoke(ctx, addr, req)
}

// NewRetryQueueFor builds a retry queue delivering through this bus
// with the given redelivery policy — the one-way Invocation Retry
// Handler (used e.g. for SCM logEvent notifications).
func (b *Bus) NewRetryQueueFor(pol policy.RetryAction, pollInterval time.Duration) *RetryQueue {
	return NewRetryQueue(RetryQueueConfig{
		Clock:        b.clk,
		Invoker:      b,
		Policy:       pol,
		PollInterval: pollInterval,
		Metrics:      b.tel.Registry(),
		Store:        b.store,
		Journal:      b.journal,
	})
}

func (b *Bus) publish(e event.Event) {
	if b.events != nil {
		b.events.Publish(e)
	}
}
