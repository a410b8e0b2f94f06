package compile

import (
	"strconv"

	"github.com/masc-project/masc/internal/clock"
	"github.com/masc-project/masc/internal/event"
	"github.com/masc-project/masc/internal/policy"
	"github.com/masc-project/masc/internal/telemetry/decision"
	"github.com/masc-project/masc/internal/xmltree"
	"github.com/masc-project/masc/internal/xpath"
)

// adaptationVars are the variables every adaptation site binds for a
// Condition (in Adapt), and monitoringVars those the monitor binds
// for pre- and post-conditions. CheckDocument rejects any other name:
// a condition using one could only fail to evaluate.
var (
	adaptationVars = []string{"faultType", "target", "operation", "instanceID", "state", "instanceMessageCount"}
	monitoringVars = []string{"instanceID", "instanceMessageCount"}
)

// Inputs are the variables of one ECA round that the site knows up
// front; one it has no value for stays "". The loop adds $state and
// $instanceMessageCount, read from the Site only when needed, and
// renders all of them into each decision record.
type Inputs struct {
	FaultType, Target, Operation, InstanceID string
}

// Round is the data of one ECA round: its variables, and the base
// record (Site, Conversation, Trace, Span) the loop completes for each
// candidate, timed on Clock and sent to Recorder (nil records nothing).
type Round struct {
	Inputs
	Record   decision.Record
	Recorder *decision.Recorder
	Clock    clock.Clock
}

// Site is how an evaluation site reaches its subject and enacts a
// policy. The loop only calls these functions and keeps none, so a
// site's closures stay on its stack.
type Site struct {
	// State observes the subject's adaptation state, and SetState
	// applies a handled policy's StateAfter. Both are nil at a site
	// that reaches no process state.
	State    func() (state string, ok bool)
	SetState func(state string)
	// Root is the node a condition evaluates against.
	Root func() *xmltree.Element
	// MessageCount counts the instance's monitored messages; nil binds 0.
	MessageCount func() int
	// Execute enacts a policy whose gate held. A nil error means the
	// policy handled the trigger, and stop ends the round; an error is
	// recorded with verdict error, and the round goes on.
	Execute func(ca *CompiledAdaptation) (outcome string, stop bool, err error)
	// Enacted, if set, runs after an executed policy's record: the
	// site's metrics, audit entry and adaptation.completed event. A site
	// whose round ends at the first handled policy can do that after
	// Adapt returns instead.
	Enacted func(ca *CompiledAdaptation, err error)
}

// Adapt runs one ECA round, the decision maker's cycle of §2.1: each
// policy ev triggers at subject, in (priority, name) order, is gated
// (Applies), executed, given its StateAfter, recorded exactly once
// (rejections included) and handed to Enacted. The site is not called
// when there is no candidate.
func Adapt(repo *policy.Repository, ev event.Event, subject string, rd Round, site *Site) {
	for _, ca := range Lookup(repo).AdaptationFor(ev, subject) {
		start := rd.Clock.Now()
		state, haveState, observed := "", false, false
		observe := func() {
			if !observed && site.State != nil {
				state, haveState = site.State()
			}
			observed = true
		}
		if ca.StateBefore != "" {
			observe()
		}
		count := -1 // not read
		ok, reason := ca.Applies(state, haveState, func() (*xmltree.Element, xpath.Context) {
			observe()
			count = 0
			if site.MessageCount != nil {
				count = site.MessageCount()
			}
			return site.Root(), xpath.Context{Vars: map[string]xpath.Value{
				"faultType":            xpath.String(rd.FaultType),
				"target":               xpath.String(rd.Target),
				"operation":            xpath.String(rd.Operation),
				"instanceID":           xpath.String(rd.InstanceID),
				"state":                xpath.String(state),
				"instanceMessageCount": xpath.Number(count),
			}}
		})
		verdict, outcome, stop := decision.VerdictRejected, "", false
		var err error
		if ok {
			verdict = decision.VerdictMatched
			if outcome, stop, err = site.Execute(ca); err != nil {
				verdict, outcome = decision.VerdictError, err.Error()
			} else if ca.StateAfter != "" && site.SetState != nil {
				site.SetState(ca.StateAfter)
			}
		}
		if rd.Recorder != nil {
			inputs := map[string]string{"faultType": rd.FaultType, "target": rd.Target,
				"operation": rd.Operation, "instanceID": rd.InstanceID}
			if observed {
				inputs["state"] = state
			}
			if count >= 0 {
				inputs["instanceMessageCount"] = strconv.Itoa(count)
			}
			rec := rd.Record
			rec.Time = start
			rec.PolicyType = "adaptation"
			rec.Policy = ca.Name
			rec.Subject = subject
			rec.Operation = rd.Operation
			rec.Instance = rd.InstanceID
			rec.Trigger = string(ev.Type)
			rec.Verdict = verdict
			rec.Reason = reason
			rec.Outcome = outcome
			rec.Inputs = inputs
			// The state-before assertion shows the state the gate observed.
			rec.Assertions = ca.GateAssertions(reason, state)
			if ok {
				rec.Action = ca.ActionsJoined
			}
			rec.Latency = rd.Clock.Since(start)
			rd.Recorder.Record(rec)
		}
		if ok && site.Enacted != nil {
			site.Enacted(ca, err)
		}
		if ok && err == nil && stop {
			return
		}
	}
}

// CompletedEvent completes e as the adaptation.completed event for a
// policy a site enacted: the policy's name, and its layer and business
// value in Data, which the Ledger books.
func CompletedEvent(ca *CompiledAdaptation, e event.Event) event.Event {
	e.Type = event.TypeAdaptationCompleted
	e.PolicyName = ca.Name
	e.Data = map[string]string{"layer": string(ca.Layer)}
	if bv := ca.BusinessValue; bv != nil {
		e.Data["businessValueAmount"] = strconv.FormatFloat(bv.Amount, 'g', -1, 64)
		e.Data["businessValueCurrency"] = bv.Currency
		e.Data["businessValueReason"] = bv.Reason
	}
	return e
}
