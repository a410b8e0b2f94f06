package workflow

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/masc-project/masc/internal/clock"
	"github.com/masc-project/masc/internal/event"
	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/telemetry"
	"github.com/masc-project/masc/internal/transport"
	"github.com/masc-project/masc/internal/xmltree"
)

// Errors reported by the engine.
var (
	// ErrUnknownDefinition reports starting an undeployed process.
	ErrUnknownDefinition = errors.New("workflow: unknown process definition")
	// ErrUnknownInstance reports lookup of a nonexistent instance.
	ErrUnknownInstance = errors.New("workflow: unknown process instance")
	// ErrBadState reports an operation invalid in the instance's
	// current state (e.g. editing a running instance's tree).
	ErrBadState = errors.New("workflow: operation invalid in current state")
)

// Definition is a deployable process: a named activity tree plus its
// declared variables. Definitions are immutable once deployed;
// instances get their own deep copy of the tree, so per-instance
// customization never touches the definition (the paper's core
// requirement: adaptation "without any changes to either the process
// definition or the constituent services implementations", §2.2).
type Definition struct {
	name      string
	variables []string
	root      Activity
}

// NewDefinition validates and builds a definition. Activity names must
// be unique within the tree.
func NewDefinition(name string, root Activity, variables ...string) (*Definition, error) {
	if name == "" {
		return nil, errors.New("workflow: definition needs a name")
	}
	if root == nil {
		return nil, errors.New("workflow: definition needs a root activity")
	}
	if err := checkUniqueNames(root); err != nil {
		return nil, err
	}
	vars := make([]string, len(variables))
	copy(vars, variables)
	return &Definition{name: name, variables: vars, root: root}, nil
}

// Name returns the definition name.
func (d *Definition) Name() string { return d.name }

// Variables returns the declared variable names.
func (d *Definition) Variables() []string {
	out := make([]string, len(d.variables))
	copy(out, d.variables)
	return out
}

// Root returns the definition's activity tree (callers must not
// mutate; instances clone it).
func (d *Definition) Root() Activity { return d.root }

// checkUniqueNames validates activity-name uniqueness in a tree.
func checkUniqueNames(root Activity) error {
	seen := make(map[string]bool)
	var dup error
	walkActivities(root, func(a Activity) {
		if a.Name() == "" && dup == nil {
			dup = errors.New("workflow: activity with empty name")
			return
		}
		if seen[a.Name()] && dup == nil {
			dup = fmt.Errorf("%w: %q", ErrDuplicateActivity, a.Name())
		}
		seen[a.Name()] = true
	})
	return dup
}

// walkActivities visits a and all descendants, depth first.
func walkActivities(a Activity, fn func(Activity)) {
	if a == nil {
		return
	}
	fn(a)
	switch t := a.(type) {
	case *Sequence:
		for _, c := range t.children {
			walkActivities(c, fn)
		}
	case *Parallel:
		for _, b := range t.branches {
			walkActivities(b, fn)
		}
	case *If:
		walkActivities(t.then, fn)
		walkActivities(t.els, fn)
	case *While:
		walkActivities(t.body, fn)
	case *Scope:
		walkActivities(t.body, fn)
		walkActivities(t.catch, fn)
	}
}

// Resolver maps a service type to a concrete endpoint address —
// the directory lookup used when a policy specifies "a set of criteria
// for dynamically selecting the best Web service" instead of a fixed
// endpoint.
type Resolver interface {
	Resolve(serviceType string) (string, error)
}

// ResolverFunc adapts a function to Resolver.
type ResolverFunc func(serviceType string) (string, error)

var _ Resolver = ResolverFunc(nil)

// Resolve implements Resolver.
func (f ResolverFunc) Resolve(serviceType string) (string, error) { return f(serviceType) }

// RuntimeService is the WF-style extensibility hook: "the WF runtime
// engine ... takes care of different middleware concerns through an
// extensible set of WF runtime services" (§2.1). MASCAdaptationService
// (internal/core) is implemented as one of these.
type RuntimeService interface {
	// InstanceCreated runs synchronously after an instance is created
	// and before execution starts — the static-customization hook.
	InstanceCreated(inst *Instance)
	// InstanceFinished runs when an instance reaches a terminal state.
	InstanceFinished(inst *Instance, state State, err error)
	// ActivityStarted runs before each activity executes.
	ActivityStarted(inst *Instance, activity Activity)
	// ActivityCompleted runs after each activity finishes (err non-nil
	// on fault).
	ActivityCompleted(inst *Instance, activity Activity, err error)
}

// NopRuntimeService implements RuntimeService with no-ops; embed-free
// delegation base for services that care about a subset of hooks.
type NopRuntimeService struct{}

var _ RuntimeService = NopRuntimeService{}

// InstanceCreated implements RuntimeService.
func (NopRuntimeService) InstanceCreated(*Instance) {}

// InstanceFinished implements RuntimeService.
func (NopRuntimeService) InstanceFinished(*Instance, State, error) {}

// ActivityStarted implements RuntimeService.
func (NopRuntimeService) ActivityStarted(*Instance, Activity) {}

// ActivityCompleted implements RuntimeService.
func (NopRuntimeService) ActivityCompleted(*Instance, Activity, error) {}

// Engine hosts process definitions and runs instances — the analog of
// the WF runtime engine that "manages the instantiation and execution
// of the workflow activities" (§2.1). Engine is safe for concurrent use.
type Engine struct {
	clk      clock.Clock
	invoker  transport.Invoker
	bus      *event.Bus
	resolver Resolver
	msgIDs   *soap.IDGenerator
	tel      *telemetry.Telemetry
	met      engineMetrics
	log      *telemetry.Logger

	mu          sync.Mutex
	definitions map[string]*Definition
	instances   map[string]*Instance
	services    []RuntimeService
	instSeq     atomic.Uint64
}

// EngineOption configures an Engine.
type EngineOption func(*Engine)

// WithClock injects the engine clock (defaults to the real clock).
func WithClock(clk clock.Clock) EngineOption {
	return func(e *Engine) { e.clk = clk }
}

// WithEventBus connects the engine's tracking events to a bus.
func WithEventBus(bus *event.Bus) EngineOption {
	return func(e *Engine) { e.bus = bus }
}

// WithResolver installs the service-type resolver for dynamic invokes.
func WithResolver(r Resolver) EngineOption {
	return func(e *Engine) { e.resolver = r }
}

// WithTelemetry wires the observability layer: instance and activity
// metrics are recorded into its registry and every instance execution
// is traced (process → activity → invoke spans). Without this option
// (or with a nil hub) instrumentation is disabled.
func WithTelemetry(tel *telemetry.Telemetry) EngineOption {
	return func(e *Engine) { e.tel = tel }
}

// NewEngine builds an engine whose invoke activities call through
// invoker (in MASC deployments, the wsBus client or VEP dispatcher).
func NewEngine(invoker transport.Invoker, opts ...EngineOption) *Engine {
	e := &Engine{
		clk:         clock.New(),
		invoker:     invoker,
		msgIDs:      soap.NewIDGenerator("urn:masc:msg:"),
		definitions: make(map[string]*Definition),
		instances:   make(map[string]*Instance),
	}
	for _, opt := range opts {
		opt(e)
	}
	e.met = newEngineMetrics(e.tel.Registry())
	e.log = e.tel.Logger("workflow")
	return e
}

// AddRuntimeService registers a runtime-service hook. Services added
// after instances exist only see subsequent instances' events.
func (e *Engine) AddRuntimeService(svc RuntimeService) {
	e.mu.Lock()
	e.services = append(e.services, svc)
	e.mu.Unlock()
}

// Deploy registers a process definition, replacing any prior version
// of the same name (running instances keep their trees).
func (e *Engine) Deploy(def *Definition) {
	e.mu.Lock()
	e.definitions[def.Name()] = def
	e.mu.Unlock()
}

// Definition returns a deployed definition.
func (e *Engine) Definition(name string) (*Definition, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	def, ok := e.definitions[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDefinition, name)
	}
	return def, nil
}

// CreateInstance instantiates a deployed definition with the given
// input variables but does not begin execution; runtime services'
// InstanceCreated hooks (static customization) run synchronously
// before this returns.
func (e *Engine) CreateInstance(defName string, inputs map[string]*xmltree.Element) (*Instance, error) {
	def, err := e.Definition(defName)
	if err != nil {
		return nil, err
	}
	id := "proc-" + strconv.FormatUint(e.instSeq.Add(1), 10)
	inst := newInstance(e, id, def, inputs)

	e.mu.Lock()
	e.instances[id] = inst
	services := make([]RuntimeService, len(e.services))
	copy(services, e.services)
	e.mu.Unlock()

	for _, svc := range services {
		svc.InstanceCreated(inst)
	}
	e.publish(event.Event{
		Type:              event.TypeProcessStarted,
		Time:              e.clk.Now(),
		Source:            "workflow",
		Service:           defName,
		ProcessInstanceID: id,
	})
	return inst, nil
}

// Start creates an instance and begins executing it.
func (e *Engine) Start(defName string, inputs map[string]*xmltree.Element) (*Instance, error) {
	inst, err := e.CreateInstance(defName, inputs)
	if err != nil {
		return nil, err
	}
	if err := inst.Run(); err != nil {
		return nil, err
	}
	return inst, nil
}

// Instance looks up a live instance by ID — how the Adaptation Manager
// finds "the process instance to be adapted" from the correlation ID
// carried in SOAP headers.
func (e *Engine) Instance(id string) (*Instance, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	inst, ok := e.instances[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownInstance, id)
	}
	return inst, nil
}

// Instances returns the IDs of all instances (any state), sorted.
func (e *Engine) Instances() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.instances))
	for id := range e.instances {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

func (e *Engine) publish(ev event.Event) {
	if e.bus != nil {
		e.bus.Publish(ev)
	}
}

func (e *Engine) snapshotServices() []RuntimeService {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]RuntimeService, len(e.services))
	copy(out, e.services)
	return out
}
