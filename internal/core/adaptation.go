// Package core is the MASC middleware proper: it wires the policy
// repository, the monitoring services, the wsBus messaging layer, and
// the workflow engine into the paper's Figure 1 architecture.
//
//   - AdaptationService is the MASCAdaptationService: a WF-style
//     runtime service performing static customization when instances
//     are created and dynamic customization on running instances
//     (suspend → transient copy → edit → apply → resume), plus the
//     cross-layer ProcessAdapter the bus calls to suspend instances or
//     raise invoke timeouts while it retries (§3.1(3));
//   - DecisionMaker is the MASCPolicyDecisionMaker: it subscribes to
//     monitoring events, determines which adaptation policies apply
//     (by trigger, scope, priority, condition, and pre-state), and
//     dispatches them to the adaptation service;
//   - Ledger books the business-value changes adaptation policies
//     declare — the hook for business-driven adaptation;
//   - Stack assembles the whole middleware in one call.
package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"

	"github.com/masc-project/masc/internal/bus"
	"github.com/masc-project/masc/internal/clock"
	"github.com/masc-project/masc/internal/event"
	"github.com/masc-project/masc/internal/monitor"
	"github.com/masc-project/masc/internal/policy"
	"github.com/masc-project/masc/internal/policy/compile"
	"github.com/masc-project/masc/internal/telemetry"
	"github.com/masc-project/masc/internal/telemetry/decision"
	"github.com/masc-project/masc/internal/workflow"
	"github.com/masc-project/masc/internal/xmltree"
	"github.com/masc-project/masc/internal/xpath"
)

// ErrUnknownVariation reports a policy referencing an unregistered
// variation process.
var ErrUnknownVariation = errors.New("core: unknown variation process")

// AdaptationService is the MASCAdaptationService. It implements
// workflow.RuntimeService (for static customization at instance
// creation) and bus.ProcessAdapter (for cross-layer process actions).
type AdaptationService struct {
	workflow.NopRuntimeService

	engine *workflow.Engine
	repo   *policy.Repository
	events *event.Bus
	clk    clock.Clock
	// store is the MonitoringStore, so policy conditions can reference
	// message history ($instanceMessageCount) — the paper's "situations
	// when adaptation pre-conditions refer to several different SOAP
	// messages" (§2.1).
	store *monitor.Store
	// decisions receives a provenance record of every adaptation-policy
	// evaluation at both process-layer sites. Nil disables capture.
	decisions *decision.Recorder

	tel *telemetry.Telemetry
	// procActions counts cross-layer process actions by outcome.
	procActions *telemetry.CounterVec
	// customizations counts applied customization policies by mode.
	customizations *telemetry.CounterVec
	log            *telemetry.Logger

	mu         sync.Mutex
	variations map[string]workflow.Activity

	// closed ends pending delayed resumes; wg counts their goroutines.
	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// newAdaptationService builds the adaptation service with its
// process-action and customization counters and its trace annotations
// on the adapted instance's span (no-ops with a nil tel). NewStack
// registers it with the engine and the bus.
func newAdaptationService(engine *workflow.Engine, repo *policy.Repository, events *event.Bus,
	store *monitor.Store, clk clock.Clock, tel *telemetry.Telemetry, rec *decision.Recorder) *AdaptationService {
	r := tel.Registry()
	return &AdaptationService{
		engine:    engine,
		repo:      repo,
		events:    events,
		clk:       clk,
		store:     store,
		decisions: rec,
		tel:       tel,
		procActions: r.Counter("masc_process_actions_total",
			"Cross-layer process actions executed by outcome (ok, error).", "action", "outcome"),
		customizations: r.Counter("masc_customizations_total",
			"Customization policies applied to instances by mode (static, dynamic).", "policy", "mode"),
		log:        tel.Logger("adaptation"),
		variations: make(map[string]workflow.Activity),
		closed:     make(chan struct{}),
	}
}

// Close abandons pending DelayProcess resumes rather than sleeping them
// out: a delayed instance stays suspended, as its last checkpoint
// records it, and is resumed after recovery. It is idempotent.
func (s *AdaptationService) Close() {
	s.closeOnce.Do(func() { close(s.closed) })
	s.wg.Wait()
}

// RegisterVariation adds a named variation process to the library so
// policies can reference it via variationRef ("all business processes,
// including base processes and variation processes, are defined in
// appropriate other documents ... they are only referenced in
// WS-Policy4MASC policies", §2).
func (s *AdaptationService) RegisterVariation(name string, act workflow.Activity) {
	s.mu.Lock()
	s.variations[name] = act
	s.mu.Unlock()
}

// RegisterVariationXML parses an activity specification and registers
// it under the given name.
func (s *AdaptationService) RegisterVariationXML(name, activityXML string) error {
	el, err := xmltree.ParseString(activityXML)
	if err != nil {
		return fmt.Errorf("core: variation %q: %w", name, err)
	}
	act, err := workflow.ParseActivity(el)
	if err != nil {
		return fmt.Errorf("core: variation %q: %w", name, err)
	}
	s.RegisterVariation(name, act)
	return nil
}

func (s *AdaptationService) variation(name string) (workflow.Activity, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	act, ok := s.variations[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownVariation, name)
	}
	return act.Clone(), nil
}

// InstanceCreated implements workflow.RuntimeService: static
// customization. "Static customization is started when the WF runtime
// raises an event that a process instance is created" (§2.1).
func (s *AdaptationService) InstanceCreated(inst *workflow.Instance) {
	ev := event.Event{
		Type:              event.TypeProcessStarted,
		ProcessInstanceID: inst.ID(),
		Service:           inst.Definition(),
	}
	s.adaptInstance(inst, ev, func(ca *compile.CompiledAdaptation, err error) {
		if err != nil {
			s.publishAdaptation(inst.ID(), ca, "static customization failed: "+err.Error(), false)
			return
		}
		s.customizations.With(ca.Name, "static").Inc()
		s.publishAdaptation(inst.ID(), ca, "static customization applied", true)
	})
}

// adaptInstance is the process layer's side of the ECA loop, shared by
// static customization and the decision maker: conditions see the
// instance's state and its variables (or the triggering message), and
// a policy that applies runs through the process executor (dispatch).
func (s *AdaptationService) adaptInstance(inst *workflow.Instance, ev event.Event, enacted func(*compile.CompiledAdaptation, error)) {
	site := compile.Site{
		State:    func() (string, bool) { return inst.AdaptationState(), true },
		SetState: inst.SetAdaptationState,
		Root: func() *xmltree.Element {
			// Conditions on message events evaluate against the
			// intercepted message (the paper's "introspecting exchanged
			// SOAP messages"); otherwise against the instance's variables.
			if ev.Message != nil {
				return ev.Message.View()
			}
			return inst.VarsDoc()
		},
		Execute: func(ca *compile.CompiledAdaptation) (string, bool, error) {
			return "ok", false, s.dispatch(inst, ca.Actions)
		},
		Enacted: enacted,
	}
	if s.store != nil {
		site.MessageCount = func() int { return s.store.CountForInstance(inst.ID()) }
	}
	compile.Adapt(s.repo, ev, inst.Definition(), compile.Round{
		Inputs: compile.Inputs{FaultType: ev.FaultType, Target: ev.Data["target"],
			Operation: ev.Operation, InstanceID: inst.ID()},
		Record:   decision.Record{Site: decision.SiteDecision, Conversation: inst.ID()},
		Recorder: s.decisions,
		Clock:    s.clk,
	}, &site)
}

// dispatch is the process executor: it runs a policy's actions in
// order, batching consecutive structural edits into one tree update
// (customize) and sending every other action through
// ExecuteProcessAction.
func (s *AdaptationService) dispatch(inst *workflow.Instance, actions []policy.Action) error {
	var structural []policy.Action
	for _, act := range actions {
		switch act.(type) {
		case policy.AddActivityAction, policy.RemoveActivityAction, policy.ReplaceActivityAction:
			structural = append(structural, act)
			continue
		}
		if err := s.customize(inst, structural); err != nil {
			return err
		}
		structural = nil
		if err := s.ExecuteProcessAction(context.Background(), inst.ID(), act); err != nil {
			return err
		}
	}
	return s.customize(inst, structural)
}

// customize applies structural actions to an instance. For running
// instances it performs the paper's dynamic protocol: request
// suspension, edit the (validated transient copy of the) tree, resume.
// For created instances the edit is applied directly (static
// customization).
func (s *AdaptationService) customize(inst *workflow.Instance, actions []policy.Action) error {
	update, err := s.buildUpdate(actions)
	if err != nil {
		return err
	}
	if update.Empty() {
		return nil
	}

	running := inst.State() == workflow.StateRunning
	if running {
		if err := inst.Suspend(); err != nil {
			return err
		}
	}
	applyErr := inst.ApplyUpdate(update)
	if running {
		if err := inst.Resume(); err != nil && applyErr == nil {
			applyErr = err
		}
	}
	return applyErr
}

// buildUpdate translates policy actions into a workflow tree update.
// Data bindings become assign activities wrapped around the inserted
// variation ("our service also takes care of required parameters
// binding and value passing between base processes and their variation
// processes", §2.1).
func (s *AdaptationService) buildUpdate(actions []policy.Action) (*workflow.TreeUpdate, error) {
	u := workflow.NewTreeUpdate()
	for _, act := range actions {
		switch a := act.(type) {
		case policy.AddActivityAction:
			wrapped, err := s.materialize(a.ActivitySpec, a.VariationRef, a.Bindings)
			if err != nil {
				return nil, err
			}
			u.Insert(workflow.Position(a.Position), a.Anchor, wrapped)
		case policy.RemoveActivityAction:
			u.Remove(a.Activity, a.BlockEnd)
		case policy.ReplaceActivityAction:
			wrapped, err := s.materialize(a.ActivitySpec, a.VariationRef, a.Bindings)
			if err != nil {
				return nil, err
			}
			u.Replace(a.Activity, wrapped)
		default:
			// Non-structural actions are handled by ExecuteProcessAction.
		}
	}
	return u, nil
}

// compileVarPath turns a binding's source into an XPath over the
// variables document: a bare variable name selects the variable's
// content ("//name/*"); anything containing a path or expression
// syntax is compiled verbatim.
func compileVarPath(from string) (*xpath.Compiled, error) {
	if !strings.ContainsAny(from, "/([@$") {
		return xpath.Compile("//" + from + "/*")
	}
	return xpath.Compile(from)
}

// materialize resolves an inline spec or variation reference into an
// activity, wrapping it with binding assignments when needed.
func (s *AdaptationService) materialize(spec *xmltree.Element, variationRef string, bindings []policy.DataBinding) (workflow.Activity, error) {
	var act workflow.Activity
	switch {
	case spec != nil:
		parsed, err := workflow.ParseActivity(spec)
		if err != nil {
			return nil, fmt.Errorf("core: inline activity spec: %w", err)
		}
		act = parsed
	case variationRef != "":
		resolved, err := s.variation(variationRef)
		if err != nil {
			return nil, err
		}
		act = resolved
	default:
		return nil, errors.New("core: action has neither inline spec nor variation reference")
	}
	if len(bindings) == 0 {
		return act, nil
	}

	var pre, post []workflow.Assignment
	for _, b := range bindings {
		from, err := compileVarPath(b.FromVariable)
		if err != nil {
			return nil, err
		}
		as := workflow.Assignment{To: b.ToVariable, From: from}
		if b.Direction == "out" {
			post = append(post, as)
		} else {
			pre = append(pre, as)
		}
	}
	children := make([]workflow.Activity, 0, 3)
	if len(pre) > 0 {
		children = append(children, workflow.NewAssign(act.Name()+"/bind-in", pre...))
	}
	children = append(children, act)
	if len(post) > 0 {
		children = append(children, workflow.NewAssign(act.Name()+"/bind-out", post...))
	}
	if len(children) == 1 {
		return act, nil
	}
	return workflow.NewSequence(act.Name()+"/bound", children...), nil
}

// ExecuteProcessAction implements bus.ProcessAdapter: the messaging
// layer delegates process-layer actions here, correlated by the
// ProcessInstanceID carried in SOAP headers.
func (s *AdaptationService) ExecuteProcessAction(ctx context.Context, instanceID string, act policy.Action) error {
	err := s.executeProcessAction(ctx, instanceID, act)
	outcome := "ok"
	if err != nil {
		outcome = "error"
	}
	s.procActions.With(act.ActionName(), outcome).Inc()
	if span := s.tel.Traces().InstanceSpan(instanceID); span != nil {
		if err != nil {
			span.Annotate("process action %s failed: %v", act.ActionName(), err)
		} else {
			span.Annotate("process action %s applied", act.ActionName())
		}
	}
	lg := s.log.Conversation(instanceID).With("action", act.ActionName(), "instance", instanceID)
	if err != nil {
		lg.Error("process action "+act.ActionName()+" failed", "error", err.Error())
	} else {
		lg.Info("process action " + act.ActionName() + " applied")
	}
	return err
}

func (s *AdaptationService) executeProcessAction(_ context.Context, instanceID string, act policy.Action) error {
	if instanceID == "" {
		return errors.New("core: process action without instance correlation")
	}
	inst, err := s.engine.Instance(instanceID)
	if err != nil {
		return err
	}
	switch a := act.(type) {
	case policy.SuspendProcessAction:
		return inst.Suspend()
	case policy.ResumeProcessAction:
		return inst.Resume()
	case policy.TerminateProcessAction:
		inst.Terminate()
		return nil
	case policy.DelayProcessAction:
		if err := inst.Suspend(); err != nil {
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			select {
			case <-s.clk.After(a.Duration):
				// The instance may have finished or been terminated while
				// delayed; Resume's state check handles that.
				_ = inst.Resume()
			case <-s.closed:
			}
		}()
		return nil
	case policy.AdjustTimeoutAction:
		if a.Activity == "" {
			return errors.New("core: AdjustTimeout needs an activity name")
		}
		return inst.AdjustInvokeTimeout(a.Activity, a.NewTimeout)
	case policy.AddActivityAction, policy.RemoveActivityAction, policy.ReplaceActivityAction:
		return s.customize(inst, []policy.Action{act})
	default:
		return fmt.Errorf("core: unsupported process action %s", act.ActionName())
	}
}

// AdaptationState implements bus.ProcessAdapter.
func (s *AdaptationService) AdaptationState(instanceID string) (string, bool) {
	inst, err := s.engine.Instance(instanceID)
	if err != nil {
		return "", false
	}
	return inst.AdaptationState(), true
}

// SetAdaptationState implements bus.ProcessAdapter.
func (s *AdaptationService) SetAdaptationState(instanceID, state string) {
	if inst, err := s.engine.Instance(instanceID); err == nil {
		inst.SetAdaptationState(state)
	}
}

// publishAdaptation announces a policy the process layer ran. Only an
// applied policy's event carries its business value, which the Ledger
// books: a failed one enacted nothing.
func (s *AdaptationService) publishAdaptation(instanceID string, ca *compile.CompiledAdaptation, detail string, applied bool) {
	if s.events == nil {
		return
	}
	e := event.Event{
		Type:              event.TypeAdaptationCompleted,
		Time:              s.clk.Now(),
		Source:            "masc/adaptation",
		ProcessInstanceID: instanceID,
		PolicyName:        ca.Name,
		Detail:            detail,
	}
	if applied {
		e = compile.CompletedEvent(ca, e)
	}
	s.events.Publish(e)
}

// Compile-time checks.
var (
	_ workflow.RuntimeService = (*AdaptationService)(nil)
	_ bus.ProcessAdapter      = (*AdaptationService)(nil)
)
