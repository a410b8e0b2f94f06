// Package compile lowers validated WS-Policy4MASC documents into an
// immutable decision IR — the "object representation of policies, which
// is updated only when policies change" optimization the paper plans
// for the .NET wsBus (§3.2), taken one step further in the style of
// OPA's ast → compile → eval pipeline: policies are indexed into
// per-subject and per-trigger first-match dispatch tables, QNames are
// interned, and action descriptors are pre-resolved. The IR shares each
// policy's xpath.Compiled, lowered once when the policy was parsed.
//
// The compiler is registered on a policy.Repository via Enable; every
// repository mutation then recompiles the full document set before it
// is published (all-or-nothing — a set that fails to compile is never
// visible and the previous set keeps serving), and evaluation sites
// read the current CompiledSet through one atomic load (Lookup) without
// taking the repository lock.
//
// Lookup enables a repository nobody enabled on its first lookup, so
// the compiled set is the only policy dispatcher. The repository scans
// it replaced are the oracle for dispatch, in oracle_test.go: the
// differential tests here compare which policies match and in what
// order, and internal/core holds a fixture workload's decision records
// to the ones the scans produced.
package compile

import "fmt"

// Severity grades a diagnostic.
type Severity string

// Diagnostic severities.
const (
	// SeverityError marks a finding that rejects the document (parse or
	// validation failure). A document with an error diagnostic is never
	// published.
	SeverityError Severity = "error"
	// SeverityWarning marks a suspect-but-legal construct (dead
	// trigger, shadowed policy). Warnings do not block publication.
	SeverityWarning Severity = "warning"
)

// Diagnostic is one compiler or lint finding. policylint and the
// /api/v1/policies surface share this type, so CLI warnings and API
// compile diagnostics are the same findings in the same words.
type Diagnostic struct {
	// Severity grades the finding.
	Severity Severity `json:"severity"`
	// Policy names the offending policy within the document, when the
	// finding is attributable to one.
	Policy string `json:"policy,omitempty"`
	// Assertion names the offending assertion within the policy, when
	// the finding is attributable to one.
	Assertion string `json:"assertion,omitempty"`
	// Message is the human-readable finding.
	Message string `json:"message"`
}

// String renders the diagnostic as "severity: message".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s", d.Severity, d.Message)
}

// HasErrors reports whether any diagnostic is an error.
func HasErrors(diags []Diagnostic) bool {
	for _, d := range diags {
		if d.Severity == SeverityError {
			return true
		}
	}
	return false
}

// ErrorDiagnostic wraps an error from the parse/validate/compile
// pipeline as a structured diagnostic.
func ErrorDiagnostic(err error) Diagnostic {
	return Diagnostic{Severity: SeverityError, Message: err.Error()}
}
