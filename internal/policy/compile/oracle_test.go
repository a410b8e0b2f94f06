package compile_test

import (
	"sort"

	"github.com/masc-project/masc/internal/event"
	"github.com/masc-project/masc/internal/policy"
)

// The repository scans below are the reference the compiled dispatch
// tables are held to. They read a document set sorted by name, as
// Repository.Snapshot returns it, and filter every policy in (document
// name, document order) on each call; adaptation dispatch then sorts
// stably by (priority desc, name asc).

// oracleMonitoringFor returns the monitoring policies whose scope
// covers the subject and operation, in (document name, document order).
func oracleMonitoringFor(docs []*policy.Document, subject, operation string) []*policy.MonitoringPolicy {
	var out []*policy.MonitoringPolicy
	for _, d := range docs {
		for _, mp := range d.Monitoring {
			if mp.Scope.Matches(subject, operation) {
				out = append(out, mp)
			}
		}
	}
	return out
}

// oracleAdaptationFor returns the adaptation policies triggered by the
// event whose scope covers the event's subject, ordered by descending
// priority (ties broken by name).
func oracleAdaptationFor(docs []*policy.Document, e event.Event, subject string) []*policy.AdaptationPolicy {
	var out []*policy.AdaptationPolicy
	for _, d := range docs {
		for _, ap := range d.Adaptation {
			if !ap.Trigger.Matches(e) {
				continue
			}
			if !ap.Scope.Matches(subject, e.Operation) {
				continue
			}
			out = append(out, ap)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Priority != out[j].Priority {
			return out[i].Priority > out[j].Priority
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// oracleProtectionFor returns the first protection policy whose scope
// covers the subject, in (document name, document order); nil when
// none applies.
func oracleProtectionFor(docs []*policy.Document, subject string) *policy.ProtectionPolicy {
	for _, d := range docs {
		for _, pp := range d.Protection {
			if pp.Scope.Matches(subject, "") {
				return pp
			}
		}
	}
	return nil
}
