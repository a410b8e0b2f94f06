package core

import (
	"context"
	"strconv"
	"strings"
	"time"

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

// instanceXPathEnv exposes instance context to policy conditions.
func instanceXPathEnv(inst *workflow.Instance) xpath.Context {
	return xpath.Context{Vars: map[string]xpath.Value{
		"instanceID": xpath.String(inst.ID()),
		"state":      xpath.String(inst.AdaptationState()),
	}}
}

// DecisionMaker is the MASCPolicyDecisionMaker (§2.1): it receives
// monitoring events, "determines adaptation policy assertions to be
// applied to the process instance and sends an event to
// MASCAdaptationService", honoring policy priorities.
//
// It handles the process-layer triggers:
//   - message.intercepted → dynamic customization of the correlated
//     running instance;
//   - fault.detected / sla.violation → process-scoped corrective
//     policies (policies scoped to VEP subjects are enforced inside the
//     bus itself).
type DecisionMaker struct {
	engine *workflow.Engine
	repo   *policy.Repository
	adapt  *AdaptationService
	// store is the MonitoringStore, so policy conditions can reference
	// message history ($instanceMessageCount) — the paper's "situations
	// when adaptation pre-conditions refer to several different SOAP
	// messages" (§2.1).
	store *monitor.Store

	// evaluations counts decision rounds by trigger event type;
	// dispatches counts dispatched policies by outcome; log audits every
	// dispatch. All are no-ops with a nil telemetry hub.
	evaluations *telemetry.CounterVec
	dispatches  *telemetry.CounterVec
	log         *telemetry.Logger
	// decisions receives a provenance record of every adaptation-policy
	// evaluation — including policyApplies rejections — with its inputs,
	// verdict, and dispatch outcome. Nil disables capture.
	decisions *decision.Recorder
}

// newDecisionMaker builds the decision maker and subscribes it to the
// process-layer triggers on events; the returned function detaches it.
func newDecisionMaker(engine *workflow.Engine, repo *policy.Repository, adapt *AdaptationService,
	events *event.Bus, store *monitor.Store, tel *telemetry.Telemetry, rec *decision.Recorder) (*DecisionMaker, func()) {
	r := tel.Registry()
	d := &DecisionMaker{
		engine: engine,
		repo:   repo,
		adapt:  adapt,
		store:  store,
		evaluations: r.Counter("masc_policy_evaluations_total",
			"Decision-maker evaluation rounds by trigger event type.", "trigger"),
		dispatches: r.Counter("masc_policy_dispatches_total",
			"Adaptation policies dispatched by the decision maker by outcome (ok, error).", "policy", "outcome"),
		log:       tel.Logger("decision"),
		decisions: rec,
	}
	un1 := events.Subscribe(event.TypeMessageIntercepted, d.onEvent)
	un2 := events.Subscribe(event.TypeFaultDetected, d.onEvent)
	un3 := events.Subscribe(event.TypeSLAViolation, d.onEvent)
	return d, func() {
		un1()
		un2()
		un3()
	}
}

func (d *DecisionMaker) onEvent(ev event.Event) {
	if ev.ProcessInstanceID == "" {
		return
	}
	inst, err := d.engine.Instance(ev.ProcessInstanceID)
	if err != nil {
		return
	}
	d.evaluations.With(string(ev.Type)).Inc()
	// Policies scoped to the process definition (the bus enforces
	// VEP-scoped ones itself).
	for _, pol := range compile.Lookup(d.repo).AdaptationFor(ev, inst.Definition()) {
		start := time.Now()
		applies, reason := d.policyApplies(pol, inst, ev)
		if !applies {
			d.recordDecision(pol, inst, ev, start, decision.VerdictRejected, reason, "")
			continue
		}
		if err := d.dispatch(pol, inst, ev); err != nil {
			d.dispatches.With(pol.Name, "error").Inc()
			d.auditDispatch(pol, inst, ev, "error: "+err.Error())
			d.adapt.publishAdaptation(inst.ID(), pol.AdaptationPolicy, "adaptation failed: "+err.Error())
			d.recordDecision(pol, inst, ev, start, decision.VerdictError, "", err.Error())
			continue
		}
		d.dispatches.With(pol.Name, "ok").Inc()
		if pol.Kind == policy.KindCustomization {
			d.adapt.customizations.With(pol.Name, "dynamic").Inc()
		}
		d.auditDispatch(pol, inst, ev, "ok")
		if pol.StateAfter != "" {
			inst.SetAdaptationState(pol.StateAfter)
		}
		d.adapt.publishAdaptation(inst.ID(), pol.AdaptationPolicy, "dynamic adaptation applied")
		d.recordDecision(pol, inst, ev, start, decision.VerdictMatched, "", "ok")
	}
}

// recordDecision emits one provenance record for one adaptation-policy
// evaluation round in the process-layer decision maker.
func (d *DecisionMaker) recordDecision(pol *compile.CompiledAdaptation, inst *workflow.Instance, ev event.Event, start time.Time, verdict decision.Verdict, reason, outcome string) {
	if d.decisions == nil {
		return
	}
	inputs := map[string]string{
		"faultType": ev.FaultType,
		"operation": ev.Operation,
		"state":     inst.AdaptationState(),
	}
	if d.store != nil {
		inputs["instanceMessageCount"] = strconv.Itoa(d.store.CountForInstance(inst.ID()))
	}
	rec := decision.Record{
		Time:         start,
		Site:         decision.SiteDecision,
		PolicyType:   "adaptation",
		Policy:       pol.Name,
		Subject:      inst.Definition(),
		Operation:    ev.Operation,
		Instance:     inst.ID(),
		Conversation: inst.ID(),
		Trigger:      string(ev.Type),
		Verdict:      verdict,
		Reason:       reason,
		Outcome:      outcome,
		Inputs:       inputs,
		Assertions:   pol.GateAssertions(reason, inst.AdaptationState()),
		Latency:      time.Since(start),
	}
	if verdict == decision.VerdictMatched || verdict == decision.VerdictError {
		rec.Action = pol.ActionsJoined
	}
	d.decisions.Record(rec)
}

// auditDispatch records a process-layer policy dispatch in the audit
// trail, correlated by the instance ID (the conversation fallback key).
func (d *DecisionMaker) auditDispatch(pol *compile.CompiledAdaptation, inst *workflow.Instance, ev event.Event, outcome string) {
	if d.log == nil {
		return
	}
	d.log.Conversation(inst.ID()).Record(telemetry.Entry{
		Level:   telemetry.LevelWarn,
		Kind:    telemetry.KindAudit,
		Message: "dispatched policy " + pol.Name + " on instance " + inst.ID() + ": " + outcome,
		Fields: map[string]string{
			"policy":     pol.Name,
			"trigger":    string(ev.Type),
			"fault_type": ev.FaultType,
			"instance":   inst.ID(),
			"outcome":    outcome,
		},
	})
}

// policyApplies reports whether a policy's gates hold for the instance
// and event; when they do not, the second return names the rejection
// reason for the decision record ("state_mismatch", "condition_false",
// "condition_error").
func (d *DecisionMaker) policyApplies(pol *compile.CompiledAdaptation, inst *workflow.Instance, ev event.Event) (bool, string) {
	return pol.Applies(inst.AdaptationState(), true, func() (*xmltree.Element, xpath.Context) {
		env := instanceXPathEnv(inst)
		env.Vars["faultType"] = xpath.String(ev.FaultType)
		env.Vars["operation"] = xpath.String(ev.Operation)
		if d.store != nil {
			env.Vars["instanceMessageCount"] = xpath.Number(d.store.CountForInstance(inst.ID()))
		}
		// Conditions on message events evaluate against the intercepted
		// message (the paper's "introspecting exchanged SOAP messages");
		// otherwise against the instance's variables.
		if ev.Message != nil {
			return ev.Message.View(), env
		}
		return inst.VarsDoc(), env
	})
}

// dispatch executes a policy: structural actions via dynamic
// customization, the rest via ExecuteProcessAction in order.
func (d *DecisionMaker) dispatch(pol *compile.CompiledAdaptation, inst *workflow.Instance, ev event.Event) error {
	structural := &policy.AdaptationPolicy{
		Name:    pol.Name,
		Kind:    pol.Kind,
		Actions: nil,
	}
	for _, act := range pol.Actions {
		switch act.(type) {
		case policy.AddActivityAction, policy.RemoveActivityAction, policy.ReplaceActivityAction:
			structural.Actions = append(structural.Actions, act)
		default:
			if len(structural.Actions) > 0 {
				if err := d.adapt.CustomizeInstance(inst, structural); err != nil {
					return err
				}
				structural.Actions = nil
			}
			if err := d.adapt.ExecuteProcessAction(context.Background(), inst.ID(), act); err != nil {
				return err
			}
		}
	}
	if len(structural.Actions) > 0 {
		return d.adapt.CustomizeInstance(inst, structural)
	}
	return nil
}
