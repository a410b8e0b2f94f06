package compile

import (
	"fmt"

	"github.com/masc-project/masc/internal/event"
	"github.com/masc-project/masc/internal/policy"
)

// CheckDocument runs the compiler front-end over one parsed document:
// validation, then lint. A validation failure yields a single error
// diagnostic; a valid document yields its lint warnings (possibly
// none). policylint and the PUT /api/v1/policies handler both go
// through here, so CLI findings and API diagnostics are one code path.
func CheckDocument(doc *policy.Document) []Diagnostic {
	if err := policy.Validate(doc); err != nil {
		return []Diagnostic{ErrorDiagnostic(err)}
	}
	return Lint(doc)
}

// Lint reports warning diagnostics for suspect-but-legal constructs in
// a valid document: dead triggers and shadowed messaging policies.
func Lint(doc *policy.Document) []Diagnostic {
	var out []Diagnostic
	out = append(out, deadTriggers(doc)...)
	out = append(out, shadowedPolicies(doc)...)
	return out
}

// deadTriggers flags adaptation policies whose OnEvent type is never
// published by any middleware component: the policy is syntactically
// valid but can never fire.
func deadTriggers(doc *policy.Document) []Diagnostic {
	var out []Diagnostic
	for _, ap := range doc.Adaptation {
		if t := ap.Trigger.EventType; t != "" && !event.IsPublished(t) {
			out = append(out, Diagnostic{
				Severity: SeverityWarning,
				Policy:   ap.Name,
				Message: fmt.Sprintf(
					"adaptation policy %q triggers on %q, which no component publishes — the policy can never fire (published types: %v)",
					ap.Name, t, event.PublishedTypes()),
			})
		}
	}
	return out
}

// shadowedPolicies flags messaging-layer adaptation policies that can
// never enact because a higher-priority sibling always wins first: the
// bus's corrective recovery stops at the first policy whose gates
// hold, so a sibling with the same (or broader) scope and trigger that
// has no state-before gate and no condition matches every event the
// shadowed policy could have handled. Process-layer policies are
// exempt — the decision maker dispatches every applicable policy.
func shadowedPolicies(doc *policy.Document) []Diagnostic {
	var out []Diagnostic
	for _, ap := range doc.Adaptation {
		if ap.Layer == policy.LayerProcess {
			continue
		}
		for _, winner := range doc.Adaptation {
			if winner == ap || winner.Layer == policy.LayerProcess {
				continue
			}
			if !sortsBefore(winner, ap) || !covers(winner, ap) {
				continue
			}
			if winner.StateBefore != "" || winner.Condition != nil {
				continue
			}
			out = append(out, Diagnostic{
				Severity: SeverityWarning,
				Policy:   ap.Name,
				Message: fmt.Sprintf(
					"adaptation policy %q is shadowed by %q (priority %d >= %d): same scope and trigger, and %q has no state or condition gate, so the messaging layer's first-match recovery always picks it — %q can never enact",
					ap.Name, winner.Name, winner.Priority, ap.Priority, winner.Name, ap.Name),
			})
			break
		}
	}
	return out
}

// sortsBefore mirrors CompiledSet.AdaptationFor's ordering: descending
// priority, ties broken by ascending name.
func sortsBefore(a, b *policy.AdaptationPolicy) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	return a.Name < b.Name
}

// covers reports whether policy a is evaluated for every event that
// would reach policy b: a's scope and trigger are equal to or broader
// than b's (an empty field matches everything, so it covers any
// narrower value).
func covers(a, b *policy.AdaptationPolicy) bool {
	if a.Scope.Subject != "" && a.Scope.Subject != b.Scope.Subject {
		return false
	}
	if a.Scope.Operation != "" && a.Scope.Operation != b.Scope.Operation {
		return false
	}
	if a.Trigger.EventType != "" && a.Trigger.EventType != b.Trigger.EventType {
		return false
	}
	if a.Trigger.FaultType != "" && a.Trigger.FaultType != b.Trigger.FaultType {
		return false
	}
	return true
}
