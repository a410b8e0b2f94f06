package compile

import (
	"time"

	"github.com/masc-project/masc/internal/event"
	"github.com/masc-project/masc/internal/policy"
	"github.com/masc-project/masc/internal/telemetry/decision"
	"github.com/masc-project/masc/internal/xmltree"
	"github.com/masc-project/masc/internal/xpath"
)

// CompiledAssertion is one monitoring assertion: interned names over
// the source assertion, whose constraint xpath.Compile lowered when the
// policy was parsed.
type CompiledAssertion struct {
	// Name labels the assertion for diagnostics and decision records.
	Name string
	// FaultType is raised when the constraint evaluates false.
	FaultType string
	src       *policy.Assertion
}

// Source returns the assertion's original XPath text.
func (a *CompiledAssertion) Source() string { return a.src.Expr.Source() }

// EvalBool evaluates the assertion's constraint.
func (a *CompiledAssertion) EvalBool(root *xmltree.Element, env xpath.Context) (bool, error) {
	return a.src.Expr.EvalBool(root, env)
}

// CompiledMonitoring is one monitoring policy with every assertion
// lowered, ready for the monitor's pre/post/contract/QoS checks.
type CompiledMonitoring struct {
	// Doc names the owning document.
	Doc string
	// Name is the policy name.
	Name string
	// Scope is the policy's attachment scope.
	Scope policy.Scope
	// Pre and Post are the lowered pre-/post-condition assertions.
	Pre, Post []*CompiledAssertion
	// Thresholds are the QoS thresholds (shared with the source policy;
	// immutable by convention).
	Thresholds []*policy.QoSThreshold
	// ValidateContract requests WSDL contract validation.
	ValidateContract bool
	ord              int
}

// CompiledAdaptation is one adaptation ECA rule with its action
// descriptors pre-resolved; its relevance condition is the source
// policy's, lowered when the policy was parsed. The source
// policy is embedded: dispatchers keep reading Name, Priority, Actions,
// StateBefore/After, BusinessValue and Layer exactly as before.
type CompiledAdaptation struct {
	*policy.AdaptationPolicy
	// Doc names the owning document.
	Doc string
	// ActionNames are the pre-resolved action element names, in order.
	ActionNames []string
	// ActionsJoined is the pre-joined decision-record action label
	// (decision.JoinActions of ActionNames).
	ActionsJoined string
	ord           int
}

// Applies is the ECA applicability gate of Adapt: the subject's
// adaptation state must equal StateBefore when the policy names one,
// then the relevance condition must hold. haveState false means no process state is
// reachable from the evaluation site. input supplies the condition's
// root and variables and is called only when the policy has a
// Condition. When the gate does not hold, reason is one of
// no_process_state, state_mismatch, condition_error, condition_false.
func (ca *CompiledAdaptation) Applies(state string, haveState bool,
	input func() (*xmltree.Element, xpath.Context)) (ok bool, reason string) {

	if ca.StateBefore != "" {
		if !haveState {
			return false, "no_process_state"
		}
		if state != ca.StateBefore {
			return false, "state_mismatch"
		}
	}
	if ca.Condition == nil {
		return true, ""
	}
	ok, err := ca.Condition.EvalBool(input())
	if err != nil {
		return false, "condition_error"
	}
	if !ok {
		return false, "condition_false"
	}
	return true, ""
}

// GateAssertions renders one Applies outcome as the decision record's
// "state-before" and "condition" assertions. reason is what Applies
// returned; stateValue is the state the gate observed.
func (ca *CompiledAdaptation) GateAssertions(reason, stateValue string) []decision.Assertion {
	stateFailed := reason == "state_mismatch" || reason == "no_process_state"
	var checks []decision.Assertion
	if ca.StateBefore != "" {
		a := decision.Assertion{Name: "state-before", Value: stateValue}
		if stateFailed {
			a.Reason = reason
		} else {
			a.Matched = true
		}
		checks = append(checks, a)
	}
	if ca.Condition != nil {
		a := decision.Assertion{Name: "condition", Value: ca.Condition.Source()}
		switch {
		case stateFailed:
			a.Skipped = true
			a.Reason = "short_circuit"
		case reason != "":
			a.Reason = reason
		default:
			a.Matched = true
		}
		checks = append(checks, a)
	}
	return checks
}

// CompiledProtection is one protection policy entry in the first-match
// protection table.
type CompiledProtection struct {
	*policy.ProtectionPolicy
	// Doc names the owning document.
	Doc string
	ord int
}

// DocStatus is the per-document compile status exposed by the
// management API: identity, content hash, policy counts, and lint
// warnings.
type DocStatus struct {
	// Name is the document name.
	Name string `json:"name"`
	// SHA256 is the hex SHA-256 of the document's canonical XML
	// serialization (see HashDocument).
	SHA256 string `json:"sha256"`
	// Monitoring/Adaptation/Protection count the document's policies.
	Monitoring int `json:"monitoring"`
	Adaptation int `json:"adaptation"`
	Protection int `json:"protection"`
	// Diagnostics are the document's lint warnings (a published
	// document never carries errors).
	Diagnostics []Diagnostic `json:"diagnostics,omitempty"`
}

// DocManifest identifies one document inside a bundle manifest.
type DocManifest struct {
	// Name is the document name.
	Name string `json:"name"`
	// SHA256 is the hex SHA-256 of the canonical serialization.
	SHA256 string `json:"sha256"`
}

// Manifest is the versioned identity of a compiled bundle: which
// documents at which content hashes were compiled when. Revision is
// deterministic in the document set (a truncated SHA-256 over the
// per-document hashes), so two nodes holding the same documents report
// the same revision.
type Manifest struct {
	// Revision identifies the document set.
	Revision string `json:"revision"`
	// CompiledAt is when this set was compiled.
	CompiledAt time.Time `json:"compiled_at"`
	// Documents lists the member documents, sorted by name.
	Documents []DocManifest `json:"documents"`
}

// CompiledSet is the immutable decision IR for one full document set.
// It is built once per repository mutation and published with a single
// atomic store; readers never see a partially updated set. It is the
// only policy dispatcher. Its lookups order exactly as the repository
// scans in oracle_test.go that tests hold it to: (document name,
// document order) for first-match tables, and (priority desc, name
// asc, document order) for adaptation dispatch.
type CompiledSet struct {
	// Manifest is the bundle identity of this set.
	Manifest Manifest
	// Diagnostics are the set's lint warnings across all documents.
	Diagnostics []Diagnostic

	docs map[string]*DocStatus
	// Monitoring dispatch: exact-subject buckets plus a wildcard bucket
	// (policies with an empty scope subject), each in global ordinal
	// order; lookups merge the two by ordinal.
	monBySubject map[string][]*CompiledMonitoring
	monWild      []*CompiledMonitoring
	// Protection first-match table, same bucket scheme.
	protBySubject map[string][]*CompiledProtection
	protWild      []*CompiledProtection
	// Adaptation dispatch: per-trigger-event buckets plus a wildcard
	// bucket, each pre-sorted by (priority desc, name asc, ordinal asc);
	// lookups merge the two sorted buckets.
	adaptByEvent map[event.Type][]*CompiledAdaptation
	adaptWild    []*CompiledAdaptation

	monitoring, adaptation, protection int
}

// Docs returns the per-document compile status, sorted by name.
func (s *CompiledSet) Docs() []*DocStatus {
	out := make([]*DocStatus, 0, len(s.docs))
	for _, m := range s.Manifest.Documents {
		out = append(out, s.docs[m.Name])
	}
	return out
}

// Doc returns the named document's status, or nil.
func (s *CompiledSet) Doc(name string) *DocStatus { return s.docs[name] }

// Counts returns the number of compiled monitoring, adaptation, and
// protection policies across the whole set.
func (s *CompiledSet) Counts() (monitoring, adaptation, protection int) {
	return s.monitoring, s.adaptation, s.protection
}

// MonitoringFor returns the compiled monitoring policies whose scope
// covers the subject and operation, in (document name, document order)
// — the order of the repository scan it is tested against.
func (s *CompiledSet) MonitoringFor(subject, operation string) []*CompiledMonitoring {
	var exact []*CompiledMonitoring
	if subject != "" {
		exact = s.monBySubject[subject]
	}
	wild := s.monWild
	var out []*CompiledMonitoring
	i, j := 0, 0
	for i < len(exact) || j < len(wild) {
		var mp *CompiledMonitoring
		if j >= len(wild) || (i < len(exact) && exact[i].ord < wild[j].ord) {
			mp = exact[i]
			i++
		} else {
			mp = wild[j]
			j++
		}
		if mp.Scope.Matches(subject, operation) {
			out = append(out, mp)
		}
	}
	return out
}

// ProtectionFor returns the first protection policy whose scope covers
// the subject (protection policies do not stack), or nil.
func (s *CompiledSet) ProtectionFor(subject string) *policy.ProtectionPolicy {
	var exact []*CompiledProtection
	if subject != "" {
		exact = s.protBySubject[subject]
	}
	wild := s.protWild
	switch {
	case len(exact) == 0 && len(wild) == 0:
		return nil
	case len(exact) == 0:
		return wild[0].ProtectionPolicy
	case len(wild) == 0 || exact[0].ord < wild[0].ord:
		return exact[0].ProtectionPolicy
	default:
		return wild[0].ProtectionPolicy
	}
}

// adaptBefore is the adaptation dispatch order: descending priority,
// ties by ascending name, then by global ordinal — exactly the result
// of a stable sort over (document name, document order).
func adaptBefore(a, b *CompiledAdaptation) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	return a.ord < b.ord
}

// AdaptationFor returns the compiled adaptation policies triggered by
// the event whose scope covers the subject, ordered by descending
// priority (ties by name). Callers gate each policy through Applies.
func (s *CompiledSet) AdaptationFor(e event.Event, subject string) []*CompiledAdaptation {
	exact := s.adaptByEvent[e.Type]
	wild := s.adaptWild
	var out []*CompiledAdaptation
	i, j := 0, 0
	for i < len(exact) || j < len(wild) {
		var ap *CompiledAdaptation
		if j >= len(wild) || (i < len(exact) && adaptBefore(exact[i], wild[j])) {
			ap = exact[i]
			i++
		} else {
			ap = wild[j]
			j++
		}
		if !ap.Trigger.Matches(e) {
			continue
		}
		if !ap.Scope.Matches(subject, e.Operation) {
			continue
		}
		out = append(out, ap)
	}
	return out
}
