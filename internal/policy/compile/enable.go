package compile

import (
	"fmt"
	"time"

	"github.com/masc-project/masc/internal/policy"
	"github.com/masc-project/masc/internal/telemetry"
)

// Options configures Enable. Both fields are optional.
type Options struct {
	// Registry receives the masc_policy_* metric families.
	Registry *telemetry.Registry
	// Journal receives one audit entry per published (or rejected)
	// bundle swap.
	Journal *telemetry.Journal
}

// compileBuckets grade compile latency from trivial single-document
// sets up to large bundles.
var compileBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1}

// Enable registers the compiler on the repository: from this call on,
// every mutation (Load, Unload, ReplaceAll) compiles the full incoming
// document set before publishing it, and Lookup returns the live
// CompiledSet via one atomic load. The current document set is compiled
// immediately. Each swap observes masc_policy_compile_seconds, counts
// into masc_policy_bundle_swaps_total{outcome}, updates the
// masc_policy_bundle_* gauges, and appends an audit-journal entry.
func Enable(r *policy.Repository, opts Options) error {
	var (
		compileSeconds *telemetry.HistogramVec
		swaps          *telemetry.CounterVec
		docsGauge      *telemetry.GaugeVec
		policiesGauge  *telemetry.GaugeVec
	)
	if reg := opts.Registry; reg != nil {
		compileSeconds = reg.Histogram("masc_policy_compile_seconds",
			"Latency of compiling the full policy document set into the decision IR.",
			compileBuckets)
		swaps = reg.Counter("masc_policy_bundle_swaps_total",
			"Policy bundle swap attempts by outcome (ok = new set published, error = rejected, previous set kept).",
			"outcome")
		docsGauge = reg.Gauge("masc_policy_bundle_documents",
			"Documents in the currently published policy bundle.")
		policiesGauge = reg.Gauge("masc_policy_bundle_policies",
			"Compiled policies in the currently published bundle, by policy type.",
			"type")
	}
	fn := func(docs []*policy.Document) (any, error) {
		start := time.Now()
		cs, err := Compile(docs)
		if compileSeconds != nil {
			compileSeconds.With().Observe(time.Since(start).Seconds())
		}
		if err != nil {
			if swaps != nil {
				swaps.With("error").Inc()
			}
			if opts.Journal != nil {
				opts.Journal.Record(telemetry.Entry{
					Level:     telemetry.LevelWarn,
					Kind:      telemetry.KindAudit,
					Component: "policy",
					Message:   fmt.Sprintf("policy bundle swap rejected, previous set keeps serving: %v", err),
					Fields:    map[string]string{"outcome": "error", "error": err.Error()},
				})
			}
			return nil, err
		}
		if swaps != nil {
			swaps.With("ok").Inc()
			docsGauge.With().Set(float64(len(cs.Manifest.Documents)))
			policiesGauge.With("monitoring").Set(float64(cs.monitoring))
			policiesGauge.With("adaptation").Set(float64(cs.adaptation))
			policiesGauge.With("protection").Set(float64(cs.protection))
		}
		if opts.Journal != nil {
			opts.Journal.Record(telemetry.Entry{
				Level:     telemetry.LevelInfo,
				Kind:      telemetry.KindAudit,
				Component: "policy",
				Message: fmt.Sprintf("policy bundle %s published: %d document(s), %d monitoring, %d adaptation, %d protection",
					cs.Manifest.Revision, len(cs.Manifest.Documents), cs.monitoring, cs.adaptation, cs.protection),
				Fields: map[string]string{
					"outcome":   "ok",
					"revision":  cs.Manifest.Revision,
					"documents": fmt.Sprint(len(cs.Manifest.Documents)),
				},
			})
		}
		return cs, nil
	}
	return r.SetCompiler(fn)
}

// Lookup returns the repository's live CompiledSet: one atomic load
// that never takes the repository lock, and never nil. A repository
// nobody has called Enable on is enabled here, without metrics, on its
// first lookup; from then on its mutations compile before they publish.
// Callers that want the metrics and the audit journal (mascd, the
// benchmark) call Enable before loading. Two racing first lookups each
// compile under the repository lock and publish equal sets.
func Lookup(r *policy.Repository) *CompiledSet {
	if cs, ok := r.Compiled().(*CompiledSet); ok {
		return cs
	}
	// Compile fails only on a duplicate document name, which the
	// repository's name-keyed document map excludes, or when a document
	// does not serialize, which xmltree.MarshalString never reports. An
	// error here is a broken invariant, not a bad policy.
	if err := Enable(r, Options{}); err != nil {
		panic(fmt.Sprintf("compile: repository documents failed to compile: %v", err))
	}
	return r.Compiled().(*CompiledSet)
}

// MonitoringsFor is Lookup(r).MonitoringFor(subject, operation). It
// stays a function of its own because benchmark/layers.go measures
// it as the policy.lookup row.
func MonitoringsFor(r *policy.Repository, subject, operation string) []*CompiledMonitoring {
	return Lookup(r).MonitoringFor(subject, operation)
}
