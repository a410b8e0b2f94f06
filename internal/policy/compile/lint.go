package compile

import (
	"fmt"
	"slices"
	"strings"

	"github.com/masc-project/masc/internal/event"
	"github.com/masc-project/masc/internal/policy"
	"github.com/masc-project/masc/internal/xpath"
)

// CheckDocument runs the compiler front-end over one parsed document:
// validation, then the variable check and lint. A validation failure
// yields a single error diagnostic; a valid document yields an error
// per unbound variable and its lint warnings (possibly none).
// policylint and the PUT /api/v1/policies handler both go through
// here, so CLI findings and API diagnostics are one code path.
func CheckDocument(doc *policy.Document) []Diagnostic {
	if err := policy.Validate(doc); err != nil {
		return []Diagnostic{ErrorDiagnostic(err)}
	}
	return append(unboundVariables(doc), Lint(doc)...)
}

// Lint reports warning diagnostics for suspect-but-legal constructs in
// a valid document: dead triggers and shadowed messaging policies.
func Lint(doc *policy.Document) []Diagnostic {
	var out []Diagnostic
	out = append(out, deadTriggers(doc)...)
	out = append(out, shadowedPolicies(doc)...)
	return out
}

// unboundVariables rejects conditions naming a variable outside the set
// their site binds: evaluating one is an error, so an adaptation policy
// would be rejected as condition_error on every event. Compile leaves
// it to CheckDocument, so a document loaded around the check still
// compiles.
func unboundVariables(doc *policy.Document) []Diagnostic {
	var out []Diagnostic
	check := func(pol, assertion string, expr *xpath.Compiled, bound []string) {
		for _, name := range expr.Vars() {
			if !slices.Contains(bound, name) {
				out = append(out, Diagnostic{Severity: SeverityError, Policy: pol, Assertion: assertion,
					Message: fmt.Sprintf("policy %q references $%s in %q, which is never bound (bound variables: $%s)",
						pol, name, expr.Source(), strings.Join(bound, ", $"))})
			}
		}
	}
	for _, mp := range doc.Monitoring {
		for _, a := range slices.Concat(mp.PreConditions, mp.PostConditions) {
			check(mp.Name, a.Name, a.Expr, monitoringVars)
		}
	}
	for _, ap := range doc.Adaptation {
		if ap.Condition != nil {
			check(ap.Name, "", ap.Condition, adaptationVars)
		}
	}
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
// never enact because a higher-priority sibling always handles the
// fault first: the bus's recovery stops at the first policy that
// handles it, and falls through to the next when a policy's actions
// fail. So only an infallible winner shadows: one with the same (or
// broader) scope and trigger that always handles the fault. Process-
// layer policies are exempt — the decision maker dispatches every
// applicable policy.
func shadowedPolicies(doc *policy.Document) []Diagnostic {
	var out []Diagnostic
	for _, ap := range doc.Adaptation {
		if ap.Layer == policy.LayerProcess {
			continue
		}
		for _, winner := range doc.Adaptation {
			if winner == ap || !infallible(winner) || !sortsBefore(winner, ap) || !covers(winner, ap) {
				continue
			}
			out = append(out, Diagnostic{
				Severity: SeverityWarning,
				Policy:   ap.Name,
				Message: fmt.Sprintf(
					"adaptation policy %q is shadowed by %q (priority %d >= %d): same scope and trigger, and %q has no state or condition gate and ends in Skip, so the messaging layer's recovery always handles the fault with it — %q can never enact",
					ap.Name, winner.Name, winner.Priority, ap.Priority, winner.Name, ap.Name),
			})
			break
		}
	}
	return out
}

// infallible reports whether the bus's recovery always ends at policy
// p: it has no gate, and a Skip (which always synthesizes a response)
// among messaging actions only — a process-layer action could fail and
// abandon the policy first.
func infallible(p *policy.AdaptationPolicy) bool {
	return p.StateBefore == "" && p.Condition == nil && p.Layer == policy.LayerMessaging &&
		slices.ContainsFunc(p.Actions, func(a policy.Action) bool { _, skip := a.(policy.SkipAction); return skip })
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
