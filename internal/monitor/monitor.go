// Package monitor implements the wsBus Monitoring Service (§3.1(2)):
// it verifies configured monitoring policies against intercepted
// messages (pre/post conditions), checks QoS thresholds from SLAs
// against measured snapshots, classifies undesirable conditions into
// meaningful fault types ("Service Unavailable Fault, SLA Violation
// Fault, Service Failure Fault and Timeout Fault") and raises events
// carrying the data recovery needs (process instance ID and context).
package monitor

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/masc-project/masc/internal/clock"
	"github.com/masc-project/masc/internal/event"
	"github.com/masc-project/masc/internal/policy"
	"github.com/masc-project/masc/internal/policy/compile"
	"github.com/masc-project/masc/internal/qos"
	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/telemetry"
	"github.com/masc-project/masc/internal/telemetry/decision"
	"github.com/masc-project/masc/internal/transport"
	"github.com/masc-project/masc/internal/wsdl"
	"github.com/masc-project/masc/internal/xmltree"
	"github.com/masc-project/masc/internal/xpath"
)

// Fault type names assigned by the monitoring service's ECA rules.
const (
	FaultServiceUnavailable = "ServiceUnavailableFault"
	FaultSLAViolation       = "SLAViolationFault"
	FaultServiceFailure     = "ServiceFailureFault"
	FaultTimeout            = "TimeoutFault"
	// FaultServerBusy classifies load shed by wsBus admission control:
	// the middleware itself refused the request before any backend was
	// attempted, so retrying elsewhere is pointless until load drops.
	FaultServerBusy = "ServerBusyFault"
)

// ClassifyError maps an invocation error to a fault type.
func ClassifyError(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, transport.ErrTimeout):
		return FaultTimeout
	case errors.Is(err, transport.ErrOverloaded):
		return FaultServerBusy
	case errors.Is(err, transport.ErrUnavailable),
		errors.Is(err, transport.ErrEndpointNotFound):
		return FaultServiceUnavailable
	default:
		var f *soap.Fault
		if errors.As(err, &f) {
			return classifyFault(f)
		}
		return FaultServiceFailure
	}
}

// ClassifyResponse maps a response envelope to a fault type; a non-
// fault response yields "".
func ClassifyResponse(env *soap.Envelope) string {
	if env == nil || !env.IsFault() {
		return ""
	}
	return classifyFault(env.Fault)
}

func classifyFault(f *soap.Fault) string {
	// A MASC intermediary downstream signals load shedding with a
	// "ServerBusy:" fault string; keep the classification across hops.
	if strings.HasPrefix(f.String, "ServerBusy") {
		return FaultServerBusy
	}
	if f.Code == soap.FaultServer {
		return FaultServiceFailure
	}
	// Client/VersionMismatch/MustUnderstand faults indicate a problem
	// with the request itself, which retrying cannot fix; they are
	// still service failures from the composition's perspective.
	return FaultServiceFailure
}

// Violation is a detected breach of a monitoring policy.
type Violation struct {
	// Policy is the violated monitoring policy's name.
	Policy string
	// Check names the violated assertion or threshold.
	Check string
	// FaultType is the classified fault raised for this violation.
	FaultType string
	// Detail elaborates the breach for diagnostics.
	Detail string
}

// Error renders the violation as an error string.
func (v *Violation) Error() string {
	return fmt.Sprintf("monitor: policy %q check %q violated (%s): %s",
		v.Policy, v.Check, v.FaultType, v.Detail)
}

// Monitor evaluates monitoring policies. It is safe for concurrent use.
type Monitor struct {
	repo      *policy.Repository
	tracker   *qos.Tracker
	bus       *event.Bus
	store     *Store
	clk       clock.Clock
	journal   *telemetry.Journal
	decisions *decision.Recorder
}

// Option configures a Monitor.
type Option func(*Monitor)

// WithClock injects the time source.
func WithClock(clk clock.Clock) Option {
	return func(m *Monitor) { m.clk = clk }
}

// WithEventBus connects fault/SLA events to a bus.
func WithEventBus(b *event.Bus) Option {
	return func(m *Monitor) { m.bus = b }
}

// WithQoSTracker supplies measured QoS for threshold checks.
func WithQoSTracker(t *qos.Tracker) Option {
	return func(m *Monitor) { m.tracker = t }
}

// WithStore attaches a MonitoringStore recording intercepted messages
// for multi-message conditions.
func WithStore(s *Store) Option {
	return func(m *Monitor) { m.store = s }
}

// WithJournal attaches the telemetry journal: every classified fault,
// policy violation, and SLA breach leaves an audit record (nil
// disables auditing).
func WithJournal(j *telemetry.Journal) Option {
	return func(m *Monitor) { m.journal = j }
}

// WithDecisions attaches a decision recorder: every monitoring-policy
// evaluation (message checks and QoS threshold checks) leaves a
// provenance record with its evaluated assertions and verdict (nil
// disables decision capture).
func WithDecisions(d *decision.Recorder) Option {
	return func(m *Monitor) { m.decisions = d }
}

// New builds a monitor over a policy repository.
func New(repo *policy.Repository, opts ...Option) *Monitor {
	m := &Monitor{repo: repo, clk: clock.New()}
	for _, opt := range opts {
		opt(m)
	}
	return m
}

// Store returns the attached MonitoringStore (nil if none).
func (m *Monitor) Store() *Store { return m.store }

// CheckRequest evaluates pre-conditions (and contract validation) of
// every monitoring policy scoped to subject/operation against a
// request message. The first violation is returned and published as a
// fault event; nil means the request conforms.
func (m *Monitor) CheckRequest(subject, operation string, env *soap.Envelope, contract *wsdl.Contract) *Violation {
	return m.checkMessage(subject, operation, env, contract, wsdl.Request)
}

// CheckResponse evaluates post-conditions of monitoring policies
// against a response message.
func (m *Monitor) CheckResponse(subject, operation string, env *soap.Envelope, contract *wsdl.Contract) *Violation {
	return m.checkMessage(subject, operation, env, contract, wsdl.Response)
}

func (m *Monitor) checkMessage(subject, operation string, env *soap.Envelope, contract *wsdl.Contract, dir wsdl.Direction) *Violation {
	// The assertions read the message where it is, through a view
	// built for the first assertion that runs. The message is stored
	// by ObserveMessage, at interception, not here.
	var root *xmltree.Element
	record := m.decisions != nil
	for _, mp := range compile.MonitoringsFor(m.repo, subject, operation) {
		start := m.clk.Now()
		var checks []decision.Assertion
		assertions := mp.Pre
		if dir == wsdl.Response {
			assertions = mp.Post
		}
		if mp.ValidateContract && contract != nil {
			if err := contract.Validate(env, dir); err != nil {
				v := &Violation{
					Policy:    mp.Name,
					Check:     "contract",
					FaultType: FaultServiceFailure,
					Detail:    err.Error(),
				}
				if record {
					checks = append(checks, decision.Assertion{
						Name: "contract", Matched: true, Reason: err.Error(),
					})
					checks = skipRemaining(checks, assertions, 0)
					m.recordMessageDecision(mp.Name, subject, operation, env, dir, start, checks, v)
				}
				return m.violate(subject, operation, env, v)
			}
			if record {
				checks = append(checks, decision.Assertion{Name: "contract"})
			}
		}
		for i, a := range assertions {
			if root == nil {
				root = env.View()
			}
			ok, err := a.EvalBool(root, m.xpathEnv(env))
			if err != nil || !ok {
				v := &Violation{
					Policy:    mp.Name,
					Check:     a.Name,
					FaultType: a.FaultType,
				}
				reason := ""
				if err != nil {
					v.Detail = "assertion evaluation failed: " + err.Error()
					reason = "eval_error"
				} else {
					v.Detail = fmt.Sprintf("assertion %q is false", a.Source())
					reason = "condition_false"
				}
				if record {
					checks = append(checks, decision.Assertion{
						Name: a.Name, Matched: true, Reason: reason, Value: v.Detail,
					})
					checks = skipRemaining(checks, assertions, i+1)
					m.recordMessageDecision(mp.Name, subject, operation, env, dir, start, checks, v)
				}
				return m.violate(subject, operation, env, v)
			}
			if record {
				checks = append(checks, decision.Assertion{Name: a.Name})
			}
		}
		if record {
			m.recordMessageDecision(mp.Name, subject, operation, env, dir, start, checks, nil)
		}
	}
	return nil
}

// skipRemaining marks assertions from index on as skipped: once one
// constraint fires, the policy short-circuits and the rest are never
// evaluated — the decision record says so explicitly.
func skipRemaining(checks []decision.Assertion, assertions []*compile.CompiledAssertion, from int) []decision.Assertion {
	for _, rest := range assertions[from:] {
		checks = append(checks, decision.Assertion{
			Name: rest.Name, Skipped: true, Reason: "short_circuit",
		})
	}
	return checks
}

// recordMessageDecision emits one provenance record for the evaluation
// of one monitoring policy against one message. v is the violation
// when the policy fired, nil when every constraint held.
func (m *Monitor) recordMessageDecision(policyName, subject, operation string, env *soap.Envelope, dir wsdl.Direction, start time.Time, checks []decision.Assertion, v *Violation) {
	trigger := "message.request"
	if dir == wsdl.Response {
		trigger = "message.response"
	}
	rec := decision.Record{
		Time:       start,
		Site:       decision.SiteMonitor,
		PolicyType: "monitoring",
		Policy:     policyName,
		Subject:    subject,
		Operation:  operation,
		Trigger:    trigger,
		Verdict:    decision.VerdictPassed,
		Assertions: checks,
		Latency:    m.clk.Since(start),
	}
	if env != nil {
		rec.Instance = soap.ProcessInstanceID(env)
		rec.Conversation = conversationOf(env)
		inputs := map[string]string{"instanceID": rec.Instance}
		if m.store != nil {
			inputs["instanceMessageCount"] = strconv.Itoa(m.store.CountForInstance(rec.Instance))
		}
		rec.Inputs = inputs
	}
	if v != nil {
		rec.Verdict = decision.VerdictMatched
		rec.Action = "publish:fault.detected"
		rec.Outcome = v.FaultType
		rec.Reason = v.Detail
	}
	m.decisions.Record(rec)
}

// xpathEnv exposes evaluation variables to monitoring assertions,
// including message history counts from the MonitoringStore ("the
// Monitoring Service might reference data from external sources to
// obtain data not available in the exchange messages").
func (m *Monitor) xpathEnv(env *soap.Envelope) xpath.Context {
	vars := map[string]xpath.Value{}
	if env != nil {
		instID := soap.ProcessInstanceID(env)
		vars["instanceID"] = xpath.String(instID)
		if m.store != nil {
			vars["instanceMessageCount"] = xpath.Number(m.store.CountForInstance(instID))
		}
	}
	return xpath.Context{Vars: vars}
}

// CheckQoS evaluates SLA thresholds of policies scoped to the subject
// against the target's measured snapshot. All violations are returned
// and published as SLA events.
func (m *Monitor) CheckQoS(subject, target string) []Violation {
	if m.tracker == nil {
		return nil
	}
	snap := m.tracker.Snapshot(target)
	if !snap.Known() {
		return nil
	}
	record := m.decisions != nil
	var out []Violation
	for _, mp := range compile.MonitoringsFor(m.repo, subject, "") {
		if len(mp.Thresholds) == 0 {
			continue
		}
		start := m.clk.Now()
		var checks []decision.Assertion
		violated := false
		for _, th := range mp.Thresholds {
			name := th.Name
			if name == "" {
				name = string(th.Metric)
			}
			if snap.Invocations < th.MinSamples {
				if record {
					checks = append(checks, decision.Assertion{
						Name: name, Skipped: true, Reason: "min_samples",
						Value: fmt.Sprintf("%d/%d samples", snap.Invocations, th.MinSamples),
					})
				}
				continue
			}
			v := checkThreshold(th, snap)
			if v == nil {
				if record {
					checks = append(checks, decision.Assertion{Name: name})
				}
				continue
			}
			violated = true
			if record {
				checks = append(checks, decision.Assertion{
					Name: name, Matched: true, Reason: "threshold_breached", Value: v.Detail,
				})
			}
			v.Policy = mp.Name
			m.publishSLA(subject, target, *v, snap)
			out = append(out, *v)
		}
		if record {
			rec := decision.Record{
				Time:       start,
				Site:       decision.SiteMonitor,
				PolicyType: "monitoring",
				Policy:     mp.Name,
				Subject:    subject,
				Trigger:    "qos",
				Verdict:    decision.VerdictPassed,
				Inputs: map[string]string{
					"target":        target,
					"invocations":   strconv.Itoa(snap.Invocations),
					"failures":      strconv.Itoa(snap.Failures),
					"reliability":   strconv.FormatFloat(snap.Reliability, 'f', 4, 64),
					"availability":  strconv.FormatFloat(snap.Availability, 'f', 4, 64),
					"mean_response": snap.MeanResponse.String(),
					"p95_response":  snap.P95Response.String(),
				},
				Assertions: checks,
				Latency:    m.clk.Since(start),
			}
			if violated {
				rec.Verdict = decision.VerdictMatched
				rec.Action = "publish:sla.violation"
			}
			m.decisions.Record(rec)
		}
	}
	return out
}

func checkThreshold(th *policy.QoSThreshold, snap qos.Snapshot) *Violation {
	name := th.Name
	if name == "" {
		name = string(th.Metric)
	}
	switch th.Metric {
	case policy.MetricResponseTime:
		if snap.MeanResponse > th.MaxResponse {
			return &Violation{
				Check:     name,
				FaultType: th.FaultType,
				Detail: fmt.Sprintf("mean response %v exceeds SLA max %v",
					snap.MeanResponse, th.MaxResponse),
			}
		}
	case policy.MetricReliability:
		if snap.Reliability < th.MinValue {
			return &Violation{
				Check:     name,
				FaultType: th.FaultType,
				Detail: fmt.Sprintf("reliability %.4f below SLA min %.4f",
					snap.Reliability, th.MinValue),
			}
		}
	case policy.MetricAvailability:
		if snap.Availability < th.MinValue {
			return &Violation{
				Check:     name,
				FaultType: th.FaultType,
				Detail: fmt.Sprintf("availability %.4f below SLA min %.4f",
					snap.Availability, th.MinValue),
			}
		}
	}
	return nil
}

// ReportInvocationFault classifies an invocation outcome (error or
// fault response) and publishes the fault event that triggers
// corrective adaptation. It returns the fault type ("" when healthy).
func (m *Monitor) ReportInvocationFault(subject, operation, target string, env *soap.Envelope, err error) string {
	ft := ClassifyError(err)
	if ft == "" {
		ft = ClassifyResponse(env)
	}
	if ft == "" {
		return ""
	}
	detail := ""
	if err != nil {
		detail = err.Error()
	} else if env != nil && env.Fault != nil {
		detail = env.Fault.String
	}
	instID := ""
	if env != nil {
		instID = soap.ProcessInstanceID(env)
	}
	m.publish(event.Event{
		Type:              event.TypeFaultDetected,
		Time:              m.clk.Now(),
		Source:            "monitor",
		Service:           subject,
		Operation:         operation,
		ProcessInstanceID: instID,
		FaultType:         ft,
		Message:           env,
		Detail:            detail,
		Data:              map[string]string{"target": target},
	})
	m.audit(telemetry.Entry{
		Level:        telemetry.LevelWarn,
		Message:      fmt.Sprintf("fault %s classified on %s/%s (target %s)", ft, subject, operation, target),
		Conversation: conversationOf(env),
		Fields: map[string]string{
			"subject":    subject,
			"operation":  operation,
			"target":     target,
			"fault_type": ft,
			"detail":     detail,
		},
	})
	return ft
}

// conversationOf extracts the journal correlation key from a message.
func conversationOf(env *soap.Envelope) string {
	if env == nil {
		return ""
	}
	return soap.ConversationID(env)
}

// audit records an entry of KindAudit in the attached journal.
func (m *Monitor) audit(e telemetry.Entry) {
	if m.journal == nil {
		return
	}
	e.Kind = telemetry.KindAudit
	e.Component = "monitor"
	m.journal.Record(e)
}

func (m *Monitor) violate(subject, operation string, env *soap.Envelope, v *Violation) *Violation {
	instID := ""
	if env != nil {
		instID = soap.ProcessInstanceID(env)
	}
	m.publish(event.Event{
		Type:              event.TypeFaultDetected,
		Time:              m.clk.Now(),
		Source:            "monitor",
		Service:           subject,
		Operation:         operation,
		ProcessInstanceID: instID,
		FaultType:         v.FaultType,
		PolicyName:        v.Policy,
		Message:           env,
		Detail:            v.Detail,
	})
	m.audit(telemetry.Entry{
		Level:        telemetry.LevelWarn,
		Message:      fmt.Sprintf("monitoring policy %s check %s violated on %s/%s", v.Policy, v.Check, subject, operation),
		Conversation: conversationOf(env),
		Fields: map[string]string{
			"subject":    subject,
			"operation":  operation,
			"policy":     v.Policy,
			"check":      v.Check,
			"fault_type": v.FaultType,
			"detail":     v.Detail,
		},
	})
	return v
}

func (m *Monitor) publishSLA(subject, target string, v Violation, snap qos.Snapshot) {
	m.publish(event.Event{
		Type:       event.TypeSLAViolation,
		Time:       m.clk.Now(),
		Source:     "monitor",
		Service:    subject,
		FaultType:  v.FaultType,
		PolicyName: v.Policy,
		Detail:     v.Detail,
		Data:       map[string]string{"target": target},
	})
	// The audit record carries the QoS snapshot that evidenced the
	// breach, so operators can reconstruct the decision after the fact.
	m.audit(telemetry.Entry{
		Level:   telemetry.LevelWarn,
		Message: fmt.Sprintf("SLA policy %s check %s violated by %s", v.Policy, v.Check, target),
		Fields: map[string]string{
			"subject":       subject,
			"target":        target,
			"policy":        v.Policy,
			"check":         v.Check,
			"fault_type":    v.FaultType,
			"detail":        v.Detail,
			"invocations":   strconv.Itoa(snap.Invocations),
			"failures":      strconv.Itoa(snap.Failures),
			"reliability":   strconv.FormatFloat(snap.Reliability, 'f', 4, 64),
			"availability":  strconv.FormatFloat(snap.Availability, 'f', 4, 64),
			"mean_response": snap.MeanResponse.String(),
			"p95_response":  snap.P95Response.String(),
		},
	})
}

func (m *Monitor) publish(e event.Event) {
	if m.bus != nil {
		m.bus.Publish(e)
	}
}

// ObserveMessage records a message interception event (used by the
// MASCMonitoringService to trigger dynamic customization policies) and
// stores the message when a store is attached.
func (m *Monitor) ObserveMessage(subject, operation string, env *soap.Envelope, dir wsdl.Direction) {
	if m.store != nil && env != nil {
		m.store.Record(StoredMessage{
			Time:       m.clk.Now(),
			InstanceID: soap.ProcessInstanceID(env),
			Subject:    subject,
			Operation:  operation,
			Direction:  dir,
			Envelope:   env.Clone(),
		})
	}
	m.publish(event.Event{
		Type:              event.TypeMessageIntercepted,
		Time:              m.clk.Now(),
		Source:            "monitor",
		Service:           subject,
		Operation:         operation,
		ProcessInstanceID: soap.ProcessInstanceID(env),
		Message:           env,
	})
}
