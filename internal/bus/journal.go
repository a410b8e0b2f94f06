package bus

import (
	"context"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/telemetry"
)

// exchange carries per-invocation bookkeeping through the mediation
// context. The attempt counter spans the initial attempt, retries,
// failovers, and concurrent-invocation goroutines, so the journal can
// report how much work one gateway exchange cost.
type exchange struct {
	attempts atomic.Int32
}

type exchangeCtxKey struct{}

func withExchange(ctx context.Context, ex *exchange) context.Context {
	return context.WithValue(ctx, exchangeCtxKey{}, ex)
}

func exchangeFrom(ctx context.Context) *exchange {
	ex, _ := ctx.Value(exchangeCtxKey{}).(*exchange)
	return ex
}

// summarize names an envelope for journal fields: the payload element,
// or the fault string for fault envelopes.
func summarize(env *soap.Envelope) string {
	if env == nil {
		return ""
	}
	if env.IsFault() {
		return "Fault: " + env.Fault.String
	}
	return env.PayloadName().Local
}

// journalExchange records one gateway-handled SOAP exchange into the
// message journal (KindMessage): request/response/fault summaries,
// VEP, serving backend, attempt count, and end-to-end latency, all
// correlated by conversation and trace.
func (v *VEP) journalExchange(span *telemetry.Span, conv, op, target, outcome string,
	dur time.Duration, attempts int32, req, resp *soap.Envelope, err error) {

	j := v.bus.journal
	if j == nil {
		return
	}
	level := telemetry.LevelInfo
	fields := map[string]string{
		"vep":        v.name,
		"operation":  op,
		"target":     target,
		"outcome":    outcome,
		"attempts":   strconv.Itoa(int(attempts)),
		"latency_ms": strconv.FormatFloat(float64(dur)/float64(time.Millisecond), 'f', 3, 64),
		"request":    summarize(req),
	}
	switch {
	case err != nil:
		level = telemetry.LevelError
		fields["error"] = err.Error()
	case resp != nil && resp.IsFault():
		level = telemetry.LevelWarn
		fields["response"] = summarize(resp)
	case resp != nil:
		fields["response"] = summarize(resp)
	}
	j.Record(telemetry.Entry{
		Level:        level,
		Kind:         telemetry.KindMessage,
		Component:    "bus",
		Message:      fmt.Sprintf("%s %s via %s: %s", v.name, op, target, outcome),
		Conversation: conv,
		Trace:        span.TraceID(),
		Span:         span.SpanID(),
		Fields:       fields,
	})
}

// auditPrevention records a preventive/optimizing SLA adaptation (a
// demotion or a selection-strategy switch) into the audit trail.
func (v *VEP) auditPrevention(policyName, faultType, target, action string) {
	j := v.bus.journal
	if j == nil {
		return
	}
	j.Record(telemetry.Entry{
		Level:     telemetry.LevelWarn,
		Kind:      telemetry.KindAudit,
		Component: "bus",
		Message: fmt.Sprintf("preventive policy %s: %s %s on %s",
			policyName, action, target, v.name),
		Fields: map[string]string{
			"vep":        v.name,
			"policy":     policyName,
			"fault_type": faultType,
			"target":     target,
			"action":     action,
		},
	})
}
