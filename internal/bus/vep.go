package bus

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"github.com/masc-project/masc/internal/event"
	"github.com/masc-project/masc/internal/monitor"
	"github.com/masc-project/masc/internal/policy"
	"github.com/masc-project/masc/internal/policy/compile"
	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/telemetry"
	"github.com/masc-project/masc/internal/telemetry/decision"
	"github.com/masc-project/masc/internal/transport"
	"github.com/masc-project/masc/internal/wsdl"
	"github.com/masc-project/masc/internal/xmltree"
)

// SubjectPrefix prefixes VEP names to form policy-attachment subjects
// (e.g. VEP "Retailer" has subject "vep:Retailer").
const SubjectPrefix = "vep:"

// VEPConfig configures CreateVEP.
type VEPConfig struct {
	// Name identifies the VEP; its address is "vep:"+Name.
	Name string
	// Services are the initial registered equivalent services.
	Services []string
	// Contract is the abstract WSDL the VEP exposes ("exposes an
	// abstract WSDL for accessing the configured services").
	Contract *wsdl.Contract
	// Selection is the default selection strategy (round-robin if
	// empty).
	Selection policy.SelectionKind
	// InvokeTimeout bounds each downstream attempt (default 10s).
	InvokeTimeout time.Duration
	// MinQoSSamples is the observation count a target needs before
	// best-QoS selection trusts its metrics (default 1).
	MinQoSSamples int
	// DemotionPeriod is how long a target stays avoided after a
	// preventive SLA-violation adaptation demotes it (default 30s).
	DemotionPeriod time.Duration
	// Protection explicitly configures overload protection (admission
	// control, circuit breakers, hedging). When nil, CreateVEP applies
	// the first ProtectionPolicy scoped to the VEP's subject from the
	// bus's policy repository.
	Protection *policy.ProtectionPolicy
}

// VEP is a Virtual End Point: "a VEP allows virtualization by grouping
// a set of functionally equivalent services and exposes an abstract
// WSDL for accessing the configured services ... The VEP acts as a
// recovery block and various runtime policies can be associated with
// it" (§3.1). It performs dynamic Find/Select/Bind/Invoke on behalf of
// the orchestration engine and enforces corrective adaptation policies.
type VEP struct {
	name          string
	bus           *Bus
	contract      *wsdl.Contract
	sel           selector
	invokeTimeout time.Duration
	pipeline      Pipeline

	mu         sync.RWMutex
	services   []string
	demoted    map[string]time.Time // target -> avoid until
	protection *policy.ProtectionPolicy
	adm        *admission
	breakers   *breakerGroup
	hedge      *policy.HedgeSpec
}

var _ transport.Invoker = (*VEP)(nil)

// Name returns the VEP name.
func (v *VEP) Name() string { return v.name }

// Subject returns the policy-attachment subject ("vep:Name").
func (v *VEP) Subject() string { return SubjectPrefix + v.name }

// Address returns the invokable bus address of this VEP.
func (v *VEP) Address() string { return SubjectPrefix + v.name }

// Contract returns the VEP's abstract contract (may be nil).
func (v *VEP) Contract() *wsdl.Contract { return v.contract }

// Pipeline returns the VEP's message processing pipeline for module
// configuration.
func (v *VEP) Pipeline() *Pipeline { return &v.pipeline }

// RegisterService adds an equivalent service to the group.
func (v *VEP) RegisterService(addr string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, s := range v.services {
		if s == addr {
			return
		}
	}
	v.services = append(v.services, addr)
}

// DeregisterService removes a service and reports whether it existed.
func (v *VEP) DeregisterService(addr string) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	for i, s := range v.services {
		if s == addr {
			v.services = append(v.services[:i], v.services[i+1:]...)
			return true
		}
	}
	return false
}

// Services returns the registered services in registration order.
func (v *VEP) Services() []string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]string, len(v.services))
	copy(out, v.services)
	return out
}

// activeServices filters out currently demoted targets and targets
// whose circuit breaker is open, unless that would leave none — with
// every target demoted or broken the full set is served so probes keep
// flowing and the VEP degrades to its pre-protection behaviour instead
// of failing outright.
func (v *VEP) activeServices() []string {
	now := v.bus.clk.Now()
	v.mu.RLock()
	all := make([]string, len(v.services))
	copy(all, v.services)
	demotedUntil := make(map[string]time.Time, len(v.demoted))
	for t, until := range v.demoted {
		demotedUntil[t] = until
	}
	brk := v.breakers
	v.mu.RUnlock()

	var active []string
	for _, s := range all {
		if until, bad := demotedUntil[s]; bad && now.Before(until) {
			continue
		}
		if brk != nil && !brk.selectable(s) {
			continue
		}
		active = append(active, s)
	}
	if len(active) == 0 {
		active = all
	}
	return active
}

// admission returns the VEP's admission controller (nil when overload
// protection is not configured).
func (v *VEP) admission() *admission {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.adm
}

// breakerGroup returns the VEP's circuit breakers (may be nil).
func (v *VEP) breakerGroup() *breakerGroup {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.breakers
}

// hedgeSpec returns the VEP's hedging configuration (may be nil).
func (v *VEP) hedgeSpec() *policy.HedgeSpec {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.hedge
}

// Protection returns the protection policy currently applied to this
// VEP (nil when none).
func (v *VEP) Protection() *policy.ProtectionPolicy {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.protection
}

// ApplyProtection (re)configures the VEP's overload protection —
// admission control, per-backend circuit breakers, and hedging — from
// a protection policy. Nil removes all protection. In-flight requests
// admitted under the previous controller complete against it.
func (v *VEP) ApplyProtection(pp *policy.ProtectionPolicy) {
	var adm *admission
	var brk *breakerGroup
	var hedge *policy.HedgeSpec
	if pp != nil {
		if pp.Admission != nil {
			adm = newAdmission(pp.Admission, v.bus.clk,
				v.bus.met.queueDepth.With(v.name), v.bus.met.admitted.With(v.name))
		}
		if pp.Breaker != nil {
			brk = newBreakerGroup(v.name, pp.Name, pp.Breaker, v.bus.clk, &v.bus.met, v.bus.decisions)
		}
		hedge = pp.Hedge
	}
	v.mu.Lock()
	v.protection = pp
	v.adm = adm
	v.breakers = brk
	v.hedge = hedge
	v.mu.Unlock()
}

// BreakerStates reports the circuit state name ("closed", "half-open",
// "open") per backend that has been attempted while a breaker was
// configured. Nil when no breaker is configured.
func (v *VEP) BreakerStates() map[string]string {
	if brk := v.breakerGroup(); brk != nil {
		return brk.states()
	}
	return nil
}

// AdmissionDepths reports the in-flight and queued request counts; ok
// is false when no admission controller is configured.
func (v *VEP) AdmissionDepths() (inFlight, queued int, ok bool) {
	adm := v.admission()
	if adm == nil {
		return 0, 0, false
	}
	inFlight, queued = adm.depths()
	return inFlight, queued, true
}

// Demote preventively avoids a target for the demotion period — the
// enactment of a preventive/optimizing SLA-violation policy.
func (v *VEP) Demote(target string, period time.Duration) {
	v.bus.met.demotions.With(v.name, target).Inc()
	v.mu.Lock()
	defer v.mu.Unlock()
	v.demoted[target] = v.bus.clk.Now().Add(period)
}

// SetSelection replaces the VEP's default selection strategy at
// runtime — the enactment of an optimizing adaptation (switching to
// best-QoS routing when SLAs degrade).
func (v *VEP) SetSelection(kind policy.SelectionKind, minSamples int) {
	if minSamples <= 0 {
		minSamples = 1
	}
	sel := newSelector(kind, v.bus.tracker, minSamples, v.bus.seed)
	v.mu.Lock()
	v.sel = sel
	v.mu.Unlock()
}

// operationOf derives the operation name from a request message.
func (v *VEP) operationOf(env *soap.Envelope) string {
	if v.contract != nil {
		if op, _, err := v.contract.OperationForMessage(env); err == nil {
			return op.Name
		}
	}
	if a := soap.ReadAddressing(env); a.Action != "" {
		return a.Action
	}
	return env.PayloadName().Local
}

// Invoke implements transport.Invoker: the endpoint argument is
// ignored (the VEP itself selects the concrete target). It wraps the
// mediation in telemetry: a span (child of any trace carried by ctx)
// covering selection, attempts, and recovery, plus invocation counters
// and the end-to-end latency histogram.
func (v *VEP) Invoke(ctx context.Context, _ string, req *soap.Envelope) (*soap.Envelope, error) {
	op := v.operationOf(req)
	// Every gateway-handled exchange gets a conversation ID — the
	// correlation key joining the message journal, log lines, audit
	// records, and traces. Requests without one are stamped here so the
	// ID also reaches downstream hops and the response.
	conv := ConversationIDOf(req)
	if conv == "" && v.bus.convIDs != nil {
		conv = v.bus.convIDs.Next()
		SetConversationID(req, conv)
	}
	ctx, span := telemetry.StartSpan(ctx, "vep "+v.name)
	span.SetAttr("operation", op)
	span.SetAttr("conversation", conv)
	ex := &exchange{}
	ctx = withExchange(ctx, ex)

	clk := v.bus.clk
	start := clk.Now()
	resp, target, err := v.mediate(ctx, op, req)
	dur := clk.Since(start)
	v.bus.met.latency.With(v.name).Observe(dur.Seconds())
	outcome := "ok"
	if !healthy(resp, err) {
		outcome = "fault"
	}
	v.bus.met.invocations.With(v.name, op, outcome).Inc()
	if obs := v.bus.observer; obs != nil {
		obs.Observe(v.Subject(), outcome == "ok", dur)
	}
	if resp != nil && conv != "" && resp.Header(soap.NamespaceMASC, ConversationHeader) == nil {
		SetConversationID(resp, conv)
	}
	v.journalExchange(span, conv, op, target, outcome, dur, ex.attempts.Load(), req, resp, err)
	span.EndErr(err)
	return resp, err
}

// mediate gates the mediation path behind admission control. A shed
// request is refused up front as a ServerBusy SOAP fault — classified
// and audited by monitoring like any other invocation fault — without
// consuming a selection or a backend attempt.
func (v *VEP) mediate(ctx context.Context, op string, req *soap.Envelope) (*soap.Envelope, string, error) {
	adm := v.admission()
	if adm == nil {
		return v.invoke(ctx, op, req)
	}
	if aerr := adm.acquire(ctx, v.name); aerr != nil {
		if !errors.Is(aerr, transport.ErrOverloaded) {
			// The caller went away while queued — not a shed.
			return nil, "", aerr
		}
		reason := shedReason(aerr)
		v.bus.met.shed.With(v.name, reason).Inc()
		telemetry.SpanFromContext(ctx).Annotate("admission shed (%s)", reason)
		if dec := v.bus.decisions; dec != nil {
			inFlight, queued := adm.depths()
			span := telemetry.SpanFromContext(ctx)
			dec.Record(decision.Record{
				Time:         v.bus.clk.Now(),
				Site:         decision.SiteBus,
				PolicyType:   "protection",
				Policy:       v.protectionName(),
				Subject:      v.Subject(),
				Operation:    op,
				Instance:     soap.ProcessInstanceID(req),
				Conversation: ConversationIDOf(req),
				Trace:        span.TraceID(),
				Span:         span.SpanID(),
				Trigger:      "admission",
				Verdict:      decision.VerdictMatched,
				Action:       "shed",
				Outcome:      monitor.FaultServerBusy,
				Reason:       reason,
				Inputs: map[string]string{
					"in_flight": strconv.Itoa(inFlight),
					"queued":    strconv.Itoa(queued),
				},
			})
		}
		if mon := v.bus.monitor; mon != nil {
			mon.ReportInvocationFault(v.Subject(), op, "", req, aerr)
		}
		v.bus.met.faults.With(v.name, monitor.FaultServerBusy).Inc()
		return soap.NewFaultEnvelope(soap.FaultServer, "ServerBusy: "+aerr.Error()), "", nil
	}
	defer adm.release()
	return v.invoke(ctx, op, req)
}

// invoke is the uninstrumented mediation path. It returns the serving
// target alongside the response so the exchange journal can name the
// backend that actually answered.
func (v *VEP) invoke(ctx context.Context, op string, req *soap.Envelope) (*soap.Envelope, string, error) {
	mc := &MessageContext{VEP: v.name, Operation: op, Request: req, Meta: map[string]string{}}
	if err := v.pipeline.RunRequest(mc); err != nil {
		return nil, "", err
	}
	req = mc.Request

	mon := v.bus.monitor
	if mon != nil {
		mon.ObserveMessage(v.Subject(), op, req, wsdl.Request)
		if viol := mon.CheckRequest(v.Subject(), op, req, v.contract); viol != nil {
			return nil, "", viol
		}
	}

	order := v.order()
	if len(order) == 0 {
		return nil, "", fmt.Errorf("%w: VEP %s has no registered services", transport.ErrEndpointNotFound, v.name)
	}
	v.bus.met.selections.With(v.name, string(v.selKind()), order[0]).Inc()
	resp, target, err := v.attemptHedged(ctx, order, req, op)

	adapted := false
	if !healthy(resp, err) {
		faultType := v.reportFault(op, target, req, resp, err)
		v.bus.met.faults.With(v.name, faultType).Inc()
		telemetry.SpanFromContext(ctx).Annotate("fault %s classified on %s", faultType, target)
		resp, target, err = v.correct(ctx, req, op, target, faultType, resp, err)
		adapted = true
	}

	if healthy(resp, err) && mon != nil && resp != nil {
		// Propagate the request's instance correlation to the response
		// so monitoring events on responses reach the right instance.
		if soap.ProcessInstanceID(resp) == "" {
			if id := soap.ProcessInstanceID(req); id != "" {
				soap.SetProcessInstanceID(resp, id)
			}
		}
		mon.ObserveMessage(v.Subject(), op, resp, wsdl.Response)
		if viol := mon.CheckResponse(v.Subject(), op, resp, v.contract); viol != nil {
			if adapted {
				return nil, target, viol
			}
			v.bus.met.faults.With(v.name, viol.FaultType).Inc()
			telemetry.SpanFromContext(ctx).Annotate("response violation %s on %s", viol.FaultType, target)
			resp, target, err = v.correct(ctx, req, op, target, viol.FaultType, nil, viol)
			if err != nil {
				return resp, target, err
			}
			if resp != nil {
				if viol2 := mon.CheckResponse(v.Subject(), op, resp, v.contract); viol2 != nil {
					return nil, target, viol2
				}
			}
		}
	}
	if err != nil {
		return resp, target, err
	}

	mc.Response = resp
	mc.Target = target
	if err := v.pipeline.RunResponse(mc); err != nil {
		return nil, target, err
	}
	return mc.Response, target, nil
}

func healthy(resp *soap.Envelope, err error) bool {
	return err == nil && (resp == nil || !resp.IsFault())
}

// order returns the preference-ordered active targets.
func (v *VEP) order() []string {
	v.mu.RLock()
	sel := v.sel
	v.mu.RUnlock()
	return sel.order(v.activeServices())
}

// selKind names the current default selection strategy.
func (v *VEP) selKind() policy.SelectionKind {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.sel.kind()
}

// attempt performs one measured downstream invocation.
func (v *VEP) attempt(ctx context.Context, target string, req *soap.Envelope, op string) (*soap.Envelope, error) {
	actx, span := telemetry.StartSpan(ctx, "attempt "+target)
	span.SetAttr("operation", op)
	if ex := exchangeFrom(ctx); ex != nil {
		ex.attempts.Add(1)
	}
	// Propagate the trace context as MASC SOAP headers so a downstream
	// MASC gateway records this hop under the same trace ID.
	soap.SetTraceContext(req, span.TraceID(), span.SpanID())
	var cancel context.CancelFunc
	if v.invokeTimeout > 0 {
		actx, cancel = context.WithTimeout(actx, v.invokeTimeout)
		defer cancel()
	}
	clk := v.bus.clk
	start := clk.Now()
	brk := v.breakerGroup()
	if brk != nil {
		brk.markAttempt(target)
	}
	resp, err := v.bus.downstream.Invoke(actx, target, req)
	dur := clk.Since(start)
	ok := healthy(resp, err)
	if brk != nil {
		brk.record(target, ok)
	}
	if v.bus.tracker != nil {
		v.bus.tracker.Record(target, dur, ok)
	}
	outcome := "ok"
	switch {
	case err != nil:
		outcome = "error"
	case resp != nil && resp.IsFault():
		outcome = "fault"
	}
	v.bus.met.attempts.With(v.name, target, outcome).Inc()
	v.bus.met.attemptSeconds.With(v.name, target).Observe(dur.Seconds())
	span.SetAttr("outcome", outcome)
	level := telemetry.LevelInfo
	if outcome != "ok" {
		level = telemetry.LevelWarn
	}
	v.bus.log.Span(span).Conversation(ConversationIDOf(req)).Log(level,
		"attempt "+target+": "+outcome,
		"vep", v.name, "operation", op, "target", target, "outcome", outcome,
		"latency_ms", strconv.FormatFloat(float64(dur)/float64(time.Millisecond), 'f', 3, 64))
	span.EndErr(err)
	return resp, err
}

func (v *VEP) reportFault(op, target string, req, resp *soap.Envelope, err error) string {
	if v.bus.monitor != nil {
		msg := req
		if resp != nil && resp.IsFault() {
			msg = resp
			// Keep correlation: fault responses may lack headers.
			if soap.ProcessInstanceID(msg) == "" {
				if id := soap.ProcessInstanceID(req); id != "" {
					soap.SetProcessInstanceID(msg, id)
				}
			}
			if msg.Header(soap.NamespaceMASC, ConversationHeader) == nil {
				if id := ConversationIDOf(req); id != "" {
					SetConversationID(msg, id)
				}
			}
		}
		return v.bus.monitor.ReportInvocationFault(v.Subject(), op, target, msg, err)
	}
	if ft := monitor.ClassifyError(err); ft != "" {
		return ft
	}
	return monitor.ClassifyResponse(resp)
}

// errActionsFailed is the recorded outcome of a recovery policy that
// ran without handling the fault.
var errActionsFailed = errors.New("actions_failed")

// correct is the Adaptation Manager's side of the ECA loop (§3.1(3)):
// the adaptation policies triggered by the classified fault run in
// priority order until one handles it — the recovery block of §3.1(4).
// Returns the recovered response (with the serving target) or the
// original failure.
func (v *VEP) correct(ctx context.Context, req *soap.Envelope, op, failedTarget, faultType string,
	origResp *soap.Envelope, origErr error) (*soap.Envelope, string, error) {

	instanceID := soap.ProcessInstanceID(req)
	subject := v.Subject()
	span := telemetry.SpanFromContext(ctx)
	conv := ConversationIDOf(req)
	var (
		winner *compile.CompiledAdaptation
		resp   *soap.Envelope
		target string
	)
	site := compile.Site{
		Root: req.View,
		Execute: func(ca *compile.CompiledAdaptation) (string, bool, error) {
			r, tgt, ok := v.executePolicy(ctx, ca.AdaptationPolicy, req, op, failedTarget, instanceID)
			if !ok {
				return "", false, errActionsFailed
			}
			winner, resp, target = ca, r, tgt
			return "served_by:" + tgt, true, nil
		},
	}
	if pa := v.bus.procAdapter; pa != nil && instanceID != "" {
		site.State = func() (string, bool) {
			// An instance the process layer does not know has no state: "".
			state, _ := pa.AdaptationState(instanceID)
			return state, true
		}
		site.SetState = func(state string) { pa.SetAdaptationState(instanceID, state) }
	}
	if mon := v.bus.monitor; mon != nil && mon.Store() != nil {
		site.MessageCount = func() int { return mon.Store().CountForInstance(instanceID) }
	}
	compile.Adapt(v.bus.policySource(),
		event.Event{Type: event.TypeFaultDetected, FaultType: faultType, Operation: op}, subject,
		compile.Round{
			Inputs:   compile.Inputs{FaultType: faultType, Target: failedTarget, Operation: op, InstanceID: instanceID},
			Record:   decision.Record{Site: decision.SiteBus, Conversation: conv, Trace: span.TraceID(), Span: span.SpanID()},
			Recorder: v.bus.decisions,
			Clock:    v.bus.clk,
		}, &site)
	if winner == nil {
		return origResp, failedTarget, origErr
	}

	v.bus.met.adaptations.With(v.name, winner.Name).Inc()
	span.Annotate("adaptation policy %s handled %s (served by %s)", winner.Name, faultType, target)
	if j := v.bus.journal; j != nil {
		j.Record(telemetry.Entry{
			Level:        telemetry.LevelWarn,
			Kind:         telemetry.KindAudit,
			Component:    "bus",
			Message:      fmt.Sprintf("adaptation policy %s handled %s on %s/%s", winner.Name, faultType, v.name, op),
			Conversation: conv,
			Trace:        span.TraceID(),
			Span:         span.SpanID(),
			Fields: map[string]string{
				"vep":           v.name,
				"policy":        winner.Name,
				"fault_type":    faultType,
				"operation":     op,
				"failed_target": failedTarget,
				"served_by":     target,
			},
		})
	}
	v.bus.publish(compile.CompletedEvent(winner, event.Event{
		Time:              v.bus.clk.Now(),
		Source:            "wsbus/vep:" + v.name,
		Service:           subject,
		Operation:         op,
		ProcessInstanceID: instanceID,
		FaultType:         faultType,
	}))
	return resp, target, nil
}

// protectionName names the VEP's applied protection policy for
// decision records ("" when none).
func (v *VEP) protectionName() string {
	if pp := v.Protection(); pp != nil {
		return pp.Name
	}
	return ""
}

// executePolicy runs a policy's actions in order. It reports whether
// the policy produced a successful outcome (a healthy response, a
// skip, or — for purely process-layer policies — completed process
// actions). Once a messaging action has recovered a response, further
// recovery attempts are skipped but remaining process-layer actions
// still execute — a cross-layer policy's trailing ResumeProcess must
// run even when an earlier Retry already succeeded (§3.1(3)).
func (v *VEP) executePolicy(ctx context.Context, pol *policy.AdaptationPolicy,
	req *soap.Envelope, op, failedTarget, instanceID string) (*soap.Envelope, string, bool) {

	var (
		resp        *soap.Envelope
		target      = failedTarget
		recovered   = false
		processOnly = true
	)
	for _, act := range pol.Actions {
		switch a := act.(type) {
		case policy.RetryAction:
			processOnly = false
			if recovered {
				continue
			}
			if r, tgt, ok := v.doRetry(ctx, a, req, op, failedTarget); ok {
				resp, target, recovered = r, tgt, true
			}
		case policy.SubstituteAction:
			processOnly = false
			if recovered {
				continue
			}
			if r, tgt, ok := v.doSubstitute(ctx, a, req, op, failedTarget); ok {
				resp, target, recovered = r, tgt, true
			}
		case policy.ConcurrentAction:
			processOnly = false
			if recovered {
				continue
			}
			if r, tgt, ok := v.doBroadcast(ctx, a, req, op); ok {
				resp, target, recovered = r, tgt, true
			}
		case policy.SkipAction:
			processOnly = false
			if recovered {
				continue
			}
			v.bus.met.skips.With(v.name).Inc()
			telemetry.SpanFromContext(ctx).Annotate("skip: synthesized empty %sResponse", op)
			resp, recovered = v.skipResponse(op), true
		default:
			// Process-layer action: delegate across layers.
			if v.bus.procAdapter == nil {
				continue
			}
			if err := v.bus.procAdapter.ExecuteProcessAction(ctx, instanceID, act); err != nil {
				v.bus.publish(event.Event{
					Type:              event.TypeAdaptationCompleted,
					Time:              v.bus.clk.Now(),
					Source:            "wsbus/vep:" + v.name,
					PolicyName:        pol.Name,
					ProcessInstanceID: instanceID,
					Detail:            "process action " + act.ActionName() + " failed: " + err.Error(),
				})
				return resp, target, recovered
			}
		}
	}
	// A policy consisting solely of process-layer actions succeeds once
	// they have all executed — which takes a process adapter: without
	// one they were skipped above, and a skipped action handled nothing.
	return resp, target, recovered || (processOnly && len(pol.Actions) > 0 && v.bus.procAdapter != nil)
}

func (v *VEP) doRetry(ctx context.Context, a policy.RetryAction, req *soap.Envelope, op, target string) (*soap.Envelope, string, bool) {
	span := telemetry.SpanFromContext(ctx)
	delay := a.Delay
	for i := 0; i < a.MaxAttempts; i++ {
		if delay > 0 {
			select {
			case <-v.bus.clk.After(delay):
			case <-ctx.Done():
				return nil, target, false
			}
			if a.Backoff == policy.BackoffExponential {
				delay *= 2
			}
		}
		v.bus.met.retries.With(v.name).Inc()
		span.Annotate("retry %d/%d on %s", i+1, a.MaxAttempts, target)
		resp, err := v.attempt(ctx, target, req, op)
		if healthy(resp, err) {
			return resp, target, true
		}
	}
	return nil, target, false
}

func (v *VEP) doSubstitute(ctx context.Context, a policy.SubstituteAction, req *soap.Envelope, op, failedTarget string) (*soap.Envelope, string, bool) {
	sel := newSelector(a.Selection, v.bus.tracker, 1, v.bus.seed)
	var candidates []string
	for _, s := range v.activeServices() {
		if s != failedTarget {
			candidates = append(candidates, s)
		}
	}
	ordered := sel.order(candidates)
	if a.MaxAlternatives > 0 && len(ordered) > a.MaxAlternatives {
		ordered = ordered[:a.MaxAlternatives]
	}
	span := telemetry.SpanFromContext(ctx)
	for _, target := range ordered {
		v.bus.met.failovers.With(v.name).Inc()
		span.Annotate("failover %s -> %s", failedTarget, target)
		resp, err := v.attempt(ctx, target, req, op)
		if healthy(resp, err) {
			return resp, target, true
		}
	}
	return nil, failedTarget, false
}

// doBroadcast implements concurrent invocation of equivalent services:
// "making a copy of the message and modifying its route, then invoking
// multiple target services using concurrent invocation threads"; the
// first healthy response wins and the rest are aborted (§3.1(4)).
func (v *VEP) doBroadcast(ctx context.Context, a policy.ConcurrentAction, req *soap.Envelope, op string) (*soap.Envelope, string, bool) {
	targets := v.activeServices()
	if a.MaxTargets > 0 && len(targets) > a.MaxTargets {
		targets = targets[:a.MaxTargets]
	}
	if len(targets) == 0 {
		return nil, "", false
	}
	v.bus.met.broadcasts.With(v.name).Inc()
	telemetry.SpanFromContext(ctx).Annotate("concurrent invocation of %d targets", len(targets))
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type result struct {
		resp   *soap.Envelope
		target string
		err    error
	}
	ch := make(chan result, len(targets))
	for _, target := range targets {
		go func(target string) {
			clone := req.Clone()
			addr := soap.ReadAddressing(clone)
			addr.To = target
			addr.Apply(clone)
			resp, err := v.attempt(cctx, target, clone, op)
			ch <- result{resp: resp, target: target, err: err}
		}(target)
	}
	for range targets {
		r := <-ch
		if healthy(r.resp, r.err) {
			return r.resp, r.target, true
		}
	}
	return nil, "", false
}

// skipResponse synthesizes the empty success a Skip action returns for
// non-business-critical calls.
func (v *VEP) skipResponse(op string) *soap.Envelope {
	ns := ""
	if v.contract != nil {
		ns = v.contract.TargetNamespace
	}
	payload := xmltree.New(ns, op+"Response")
	payload.SetAttr("", "skipped", "true")
	return soap.NewRequest(payload)
}

// CheckQoSAndPrevent evaluates SLA thresholds for every registered
// target and enacts preventive demotion policies on violations: a
// policy triggered by sla.violation whose first action is Substitute
// demotes the violating target so future selections avoid it. This is
// the paper's future-work "preventive adaptation" implemented as an
// extension (DESIGN.md §6).
func (v *VEP) CheckQoSAndPrevent(demotion time.Duration) []monitor.Violation {
	mon := v.bus.monitor
	if mon == nil {
		return nil
	}
	var all []monitor.Violation
	repo := v.bus.policySource()
	for _, target := range v.Services() {
		vs := mon.CheckQoS(v.Subject(), target)
		all = append(all, vs...)
		if len(vs) == 0 {
			continue
		}
		ev := event.Event{Type: event.TypeSLAViolation, FaultType: vs[0].FaultType}
		for _, pol := range compile.Lookup(repo).AdaptationFor(ev, v.Subject()) {
			if len(pol.Actions) == 0 {
				continue
			}
			sub, isSub := pol.Actions[0].(policy.SubstituteAction)
			if !isSub {
				continue
			}
			enacted := "demote"
			if pol.Kind == policy.KindOptimization {
				// Optimizing adaptation: re-route future traffic by the
				// policy's selection strategy instead of (only)
				// avoiding the violating target.
				v.SetSelection(sub.Selection, 1)
				enacted = "reroute:" + string(sub.Selection)
			} else {
				v.Demote(target, demotion)
			}
			v.auditPrevention(pol.Name, vs[0].FaultType, target, enacted)
			v.bus.publish(compile.CompletedEvent(pol, event.Event{
				Time:      v.bus.clk.Now(),
				Source:    "wsbus/vep:" + v.name,
				Service:   v.Subject(),
				FaultType: vs[0].FaultType,
			}))
			if dec := v.bus.decisions; dec != nil {
				dec.Record(decision.Record{
					Time:       v.bus.clk.Now(),
					Site:       decision.SiteBus,
					PolicyType: "adaptation",
					Policy:     pol.Name,
					Subject:    v.Subject(),
					Trigger:    string(event.TypeSLAViolation),
					Verdict:    decision.VerdictMatched,
					Action:     enacted,
					Outcome:    "target:" + target,
					Inputs: map[string]string{
						"faultType": vs[0].FaultType,
						"target":    target,
					},
				})
			}
			break
		}
	}
	return all
}
