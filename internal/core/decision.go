package core

import (
	"github.com/masc-project/masc/internal/event"
	"github.com/masc-project/masc/internal/policy"
	"github.com/masc-project/masc/internal/policy/compile"
	"github.com/masc-project/masc/internal/telemetry"
)

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
	adapt *AdaptationService

	// evaluations counts decision rounds by trigger event type;
	// dispatches counts dispatched policies by outcome; log audits every
	// dispatch. All are no-ops with a nil telemetry hub.
	evaluations *telemetry.CounterVec
	dispatches  *telemetry.CounterVec
	log         *telemetry.Logger
}

// newDecisionMaker builds the decision maker and subscribes it to the
// process-layer triggers on events; the returned function detaches it.
func newDecisionMaker(adapt *AdaptationService, events *event.Bus, tel *telemetry.Telemetry) (*DecisionMaker, func()) {
	r := tel.Registry()
	d := &DecisionMaker{
		adapt: adapt,
		evaluations: r.Counter("masc_policy_evaluations_total",
			"Decision-maker evaluation rounds by trigger event type.", "trigger"),
		dispatches: r.Counter("masc_policy_dispatches_total",
			"Adaptation policies dispatched by the decision maker by outcome (ok, error).", "policy", "outcome"),
		log: tel.Logger("decision"),
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

// onEvent runs one ECA round over the policies scoped to the correlated
// instance's process definition (the bus enforces VEP-scoped ones
// itself).
func (d *DecisionMaker) onEvent(ev event.Event) {
	if ev.ProcessInstanceID == "" {
		return
	}
	inst, err := d.adapt.engine.Instance(ev.ProcessInstanceID)
	if err != nil {
		return
	}
	d.evaluations.With(string(ev.Type)).Inc()
	d.adapt.adaptInstance(inst, ev, func(ca *compile.CompiledAdaptation, err error) {
		outcome, audit, detail := "ok", "ok", "dynamic adaptation applied"
		if err != nil {
			outcome, audit, detail = "error", "error: "+err.Error(), "adaptation failed: "+err.Error()
		} else if ca.Kind == policy.KindCustomization {
			d.adapt.customizations.With(ca.Name, "dynamic").Inc()
		}
		d.dispatches.With(ca.Name, outcome).Inc()
		if d.log != nil {
			// Correlated by the instance ID, the conversation fallback key.
			d.log.Conversation(inst.ID()).Record(telemetry.Entry{
				Level:   telemetry.LevelWarn,
				Kind:    telemetry.KindAudit,
				Message: "dispatched policy " + ca.Name + " on instance " + inst.ID() + ": " + audit,
				Fields: map[string]string{
					"policy":     ca.Name,
					"trigger":    string(ev.Type),
					"fault_type": ev.FaultType,
					"instance":   inst.ID(),
					"outcome":    audit,
				},
			})
		}
		d.adapt.publishAdaptation(inst.ID(), ca, detail, err == nil)
	})
}
