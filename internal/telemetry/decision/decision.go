// Package decision records policy-evaluation provenance: one
// structured Record per evaluation of a WS-Policy4MASC policy, in the
// style of OPA decision logs. Every evaluation site in the middleware
// — monitoring pre/post conditions and QoS thresholds, the
// DecisionMaker's adaptation-policy matching, the wsBus protection
// paths (admission shed, circuit breaker transitions, hedge fire), and
// SLO burn-rate transitions — emits a Record carrying the evaluated
// inputs, the matched and skipped assertions with skip reasons, the
// verdict, the chosen action, and the evaluation latency. Records land
// in a bounded in-memory ring (the Recorder) and, optionally, a
// durable NDJSON log (the Log), so the middleware can answer "why did
// it adapt?" after the fact.
//
// The package depends only on the standard library, internal/ringbuf
// and internal/telemetry (for the masc_decision_* metric families); in
// particular it must not import the policy engines it observes, so
// each site holds its own *Recorder reference rather than reaching
// through the telemetry hub.
package decision

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/masc-project/masc/internal/ringbuf"
	"github.com/masc-project/masc/internal/telemetry"
)

// Verdict classifies the outcome of one policy evaluation.
type Verdict string

// Verdicts.
const (
	// VerdictMatched means the policy fired: a monitoring constraint
	// was violated, an adaptation policy applied and dispatched, a
	// protection policy took action, or an SLO began burning.
	VerdictMatched Verdict = "matched"
	// VerdictRejected means the policy was evaluated for the trigger
	// but found not applicable (see Record.Reason for why).
	VerdictRejected Verdict = "rejected"
	// VerdictPassed means the evaluation ran and everything was within
	// bounds: all assertions held, or a burning SLO recovered.
	VerdictPassed Verdict = "passed"
	// VerdictError means the evaluation or the dispatched action
	// failed; Record.Outcome carries the error.
	VerdictError Verdict = "error"
)

// Evaluation sites. Site tags where in the middleware a Record was
// emitted, and labels the masc_decision_evaluations_total family.
const (
	// SiteMonitor is internal/monitor: MonitoringPolicy pre/post
	// conditions, contract validation, and QoS threshold checks.
	SiteMonitor = "monitor"
	// SiteDecision is internal/core's DecisionMaker: AdaptationPolicy
	// matching and dispatch for published middleware events.
	SiteDecision = "decision"
	// SiteBus is internal/bus: protection-policy verdicts (admission
	// shed, breaker transitions, hedge fire) and messaging-layer
	// recovery-policy matching.
	SiteBus = "bus"
	// SiteSLO is internal/telemetry/slo: burn/recover transitions.
	SiteSLO = "slo"
)

// Assertion is the evaluation result of one constraint inside a policy
// — a pre/post condition, a QoS threshold, a relevance condition, or a
// state gate. Assertions that were never evaluated (because an earlier
// one short-circuited the policy, or a sample gate held them back) are
// recorded as skipped with a reason, so the record distinguishes "held"
// from "not looked at".
type Assertion struct {
	// Name labels the constraint (the policy author's name for it, or
	// a well-known gate name such as "state-before" or "condition").
	Name string `json:"name"`
	// Matched reports that the constraint triggered the policy outcome
	// (a violated monitoring assertion, a holding relevance condition).
	Matched bool `json:"matched"`
	// Skipped reports the constraint was not evaluated; Reason says
	// why (e.g. "short_circuit", "min_samples", "state_mismatch").
	Skipped bool `json:"skipped,omitempty"`
	// Reason explains a skip or a non-match.
	Reason string `json:"reason,omitempty"`
	// Value is the observed value the constraint was checked against,
	// rendered as text (e.g. "1.82s" for a response-time threshold).
	Value string `json:"value,omitempty"`
}

// Record is one decision: a single evaluation of a single policy at
// one site, with everything needed to explain the verdict.
type Record struct {
	// Seq is the recorder-assigned monotonic sequence number.
	Seq uint64 `json:"seq"`
	// ID is the unique decision ID, "urn:masc:decision:<seq>".
	ID string `json:"id"`
	// Time is when the evaluation happened.
	Time time.Time `json:"time"`
	// Site is the evaluation site (SiteMonitor, SiteDecision, SiteBus,
	// SiteSLO).
	Site string `json:"site"`
	// PolicyType classifies the policy: "monitoring", "adaptation",
	// "protection", or "slo".
	PolicyType string `json:"policy_type"`
	// Policy is the policy name (or objective name for SLO records).
	Policy string `json:"policy"`
	// Subject is the policy attachment point (VEP name, process name).
	Subject string `json:"subject,omitempty"`
	// Operation narrows the subject when known.
	Operation string `json:"operation,omitempty"`
	// Instance is the process-instance ID when known.
	Instance string `json:"instance,omitempty"`
	// Conversation is the correlation ID of the triggering exchange.
	Conversation string `json:"conversation,omitempty"`
	// Trace and Span tie the decision into the trace recorder.
	Trace string `json:"trace,omitempty"`
	Span  string `json:"span,omitempty"`
	// Node identifies the cluster member that evaluated the policy
	// (stamped by Recorder.SetNode; empty on single-node deployments).
	Node string `json:"node,omitempty"`
	// Trigger names what caused the evaluation: an event type
	// ("fault.detected"), a check kind ("message.request", "qos"), or
	// a protection path ("admission", "breaker", "hedge").
	Trigger string `json:"trigger,omitempty"`
	// Verdict is the outcome classification.
	Verdict Verdict `json:"verdict"`
	// Action is the chosen action when the policy fired ("retry",
	// "substitute", "shed", "open", ...), empty otherwise.
	Action string `json:"action,omitempty"`
	// Outcome reports what happened to the action ("ok", "handled", or
	// an error string).
	Outcome string `json:"outcome,omitempty"`
	// Reason explains a rejected verdict ("state_mismatch",
	// "condition_false", ...).
	Reason string `json:"reason,omitempty"`
	// Inputs are the evaluated inputs, rendered as text: XPath
	// variable bindings, QoS snapshot fields, breaker/admission state.
	Inputs map[string]string `json:"inputs,omitempty"`
	// Assertions are the per-constraint results.
	Assertions []Assertion `json:"assertions,omitempty"`
	// Latency is the evaluation (and, for matched policies, dispatch)
	// duration.
	Latency time.Duration `json:"latency_ns"`
}

// Sink receives every record accepted by a Recorder, after sequence
// and ID assignment. Implementations must not block: the Recorder
// calls Append on policy-evaluation hot paths.
type Sink interface {
	Append(Record)
}

// DefaultCapacity is the ring size used when NewRecorder is given a
// non-positive capacity.
const DefaultCapacity = 4096

// Recorder is a bounded in-memory ring of decision Records plus the
// masc_decision_* metric families. The ring — not the emission sites —
// absorbs bursts: Record is O(1), holds one mutex briefly, and never
// blocks on the optional sink. A nil *Recorder is a valid no-op, so
// evaluation sites record unconditionally.
type Recorder struct {
	mu   sync.Mutex
	ring *ringbuf.Buffer[Record]
	seq  uint64
	node string
	sink Sink

	evaluations *telemetry.CounterVec
	matches     *telemetry.CounterVec
	verdicts    *telemetry.CounterVec
	latency     *telemetry.Histogram
	evictions   *telemetry.Counter
}

// NewRecorder builds a Recorder holding up to capacity records
// (DefaultCapacity when capacity <= 0) and registers the
// masc_decision_* families on reg (nil reg disables metrics).
func NewRecorder(capacity int, reg *telemetry.Registry) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	r := &Recorder{ring: ringbuf.New[Record](capacity)}
	r.evaluations = reg.Counter("masc_decision_evaluations_total",
		"Policy evaluations recorded, by evaluation site.", "site")
	r.matches = reg.Counter("masc_decision_matches_total",
		"Policy evaluations with verdict=matched, by evaluation site.", "site")
	r.verdicts = reg.Counter("masc_decision_verdicts_total",
		"Policy evaluation verdicts, by policy and verdict.", "policy", "verdict")
	r.latency = reg.Histogram("masc_decision_eval_seconds",
		"Policy evaluation latency in seconds.", telemetry.DefSyncBuckets).With()
	r.evictions = reg.Counter("masc_decision_ring_evictions_total",
		"Decision records evicted from the in-memory ring.").With()
	return r
}

// SetSink attaches a durable sink (typically a *Log) that receives
// every accepted record. Pass nil to detach.
func (r *Recorder) SetSink(s Sink) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.sink = s
	r.mu.Unlock()
}

// SetNode stamps every subsequently recorded decision with the cluster
// node ID, so provenance survives request forwarding and failover.
func (r *Recorder) SetNode(id string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.node = id
	r.mu.Unlock()
}

// Record accepts one decision, assigning its Seq, ID, and (when unset)
// Time, and returns the stamped record. Safe on a nil Recorder.
func (r *Recorder) Record(rec Record) Record {
	if r == nil {
		return rec
	}
	if rec.Time.IsZero() {
		rec.Time = time.Now()
	}
	r.mu.Lock()
	r.seq++
	rec.Seq = r.seq
	if rec.Node == "" {
		rec.Node = r.node
	}
	rec.ID = fmt.Sprintf("urn:masc:decision:%d", r.seq)
	evicted := r.ring.Push(rec)
	sink := r.sink
	r.mu.Unlock()

	if evicted {
		r.evictions.Inc()
	}
	r.evaluations.With(rec.Site).Inc()
	if rec.Verdict == VerdictMatched {
		r.matches.With(rec.Site).Inc()
	}
	r.verdicts.With(rec.Policy, string(rec.Verdict)).Inc()
	if rec.Latency > 0 {
		r.latency.Observe(rec.Latency.Seconds())
	}
	if sink != nil {
		sink.Append(rec)
	}
	return rec
}

// Len reports how many records the ring currently holds.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Len()
}

// Counts reports total evaluations and matched verdicts recorded so
// far (across all sites), for benchmark read-back.
func (r *Recorder) Counts() (evaluations, matches uint64) {
	if r == nil {
		return 0, 0
	}
	return r.evaluations.Total(), r.matches.Total()
}

// Query filters Records. Zero fields match everything; Limit bounds
// the result to the newest Limit matches (default and maximum applied
// by callers, not here).
type Query struct {
	// Policy matches Record.Policy exactly.
	Policy string
	// Subject matches Record.Subject exactly.
	Subject string
	// Conversation matches Record.Conversation exactly.
	Conversation string
	// Instance matches Record.Instance exactly.
	Instance string
	// Trace matches Record.Trace exactly.
	Trace string
	// Site matches Record.Site exactly.
	Site string
	// Verdict matches Record.Verdict exactly.
	Verdict Verdict
	// Since excludes records strictly before the given time.
	Since time.Time
	// Limit keeps only the newest Limit matches when > 0.
	Limit int
}

func (q Query) matches(rec *Record) bool {
	if q.Policy != "" && q.Policy != rec.Policy {
		return false
	}
	if q.Subject != "" && q.Subject != rec.Subject {
		return false
	}
	if q.Conversation != "" && q.Conversation != rec.Conversation {
		return false
	}
	if q.Instance != "" && q.Instance != rec.Instance {
		return false
	}
	if q.Trace != "" && q.Trace != rec.Trace {
		return false
	}
	if q.Site != "" && q.Site != rec.Site {
		return false
	}
	if q.Verdict != "" && q.Verdict != rec.Verdict {
		return false
	}
	if !q.Since.IsZero() && rec.Time.Before(q.Since) {
		return false
	}
	return true
}

// Records returns the ring's records matching q in chronological
// order, trimmed to the newest Limit when Limit > 0.
func (r *Recorder) Records(q Query) []Record {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Select(q.matches, q.Limit)
}

// JoinActions renders a list of action names as the Record.Action
// field ("retry+substitute").
func JoinActions(names []string) string {
	return strings.Join(names, "+")
}
