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
	"sync"

	"github.com/masc-project/masc/internal/bus"
	"github.com/masc-project/masc/internal/clock"
	"github.com/masc-project/masc/internal/event"
	"github.com/masc-project/masc/internal/policy"
	"github.com/masc-project/masc/internal/policy/compile"
	"github.com/masc-project/masc/internal/telemetry"
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
func newAdaptationService(engine *workflow.Engine, repo *policy.Repository, events *event.Bus, clk clock.Clock, tel *telemetry.Telemetry) *AdaptationService {
	r := tel.Registry()
	return &AdaptationService{
		engine: engine,
		repo:   repo,
		events: events,
		clk:    clk,
		tel:    tel,
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
	for _, pol := range compile.Lookup(s.repo).AdaptationFor(ev, inst.Definition()) {
		applies, _ := pol.Applies(inst.AdaptationState(), true, func() (*xmltree.Element, xpath.Context) {
			return inst.VarsDoc(), instanceXPathEnv(inst)
		})
		if !applies {
			continue
		}
		if err := s.CustomizeInstance(inst, pol.AdaptationPolicy); err != nil {
			s.publishAdaptation(inst.ID(), pol.AdaptationPolicy, "static customization failed: "+err.Error())
			continue
		}
		s.customizations.With(pol.Name, "static").Inc()
		s.publishAdaptation(inst.ID(), pol.AdaptationPolicy, "static customization applied")
	}
}

// CustomizeInstance applies a customization policy's process-layer
// actions to an instance. For running instances it performs the
// paper's dynamic protocol: request suspension, edit the (validated
// transient copy of the) tree, resume. For created instances the edit
// is applied directly (static customization).
func (s *AdaptationService) CustomizeInstance(inst *workflow.Instance, pol *policy.AdaptationPolicy) error {
	update, err := s.buildUpdate(pol.Actions)
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
	if applyErr != nil {
		return applyErr
	}
	if pol.StateAfter != "" {
		inst.SetAdaptationState(pol.StateAfter)
	}
	return nil
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
		pol := &policy.AdaptationPolicy{Actions: []policy.Action{act}}
		return s.CustomizeInstance(inst, pol)
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

func (s *AdaptationService) publishAdaptation(instanceID string, pol *policy.AdaptationPolicy, detail string) {
	if s.events == nil {
		return
	}
	data := map[string]string{"layer": string(pol.Layer)}
	if pol.BusinessValue != nil {
		data["businessValueAmount"] = fmt.Sprintf("%g", pol.BusinessValue.Amount)
		data["businessValueCurrency"] = pol.BusinessValue.Currency
		data["businessValueReason"] = pol.BusinessValue.Reason
	}
	s.events.Publish(event.Event{
		Type:              event.TypeAdaptationCompleted,
		Time:              s.clk.Now(),
		Source:            "masc/adaptation",
		ProcessInstanceID: instanceID,
		PolicyName:        pol.Name,
		Detail:            detail,
		Data:              data,
	})
}

// Compile-time checks.
var (
	_ workflow.RuntimeService = (*AdaptationService)(nil)
	_ bus.ProcessAdapter      = (*AdaptationService)(nil)
)
