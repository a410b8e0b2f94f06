package telemetry

import (
	"sort"
	"strings"
)

// SampleBucket is one cumulative histogram bucket in a snapshot.
type SampleBucket struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// Sample is one label-valued series in a snapshot. Counters and gauges
// carry Value; histograms carry Count/Sum/Buckets.
type Sample struct {
	Labels  map[string]string `json:"labels,omitempty"`
	Value   float64           `json:"value,omitempty"`
	Count   uint64            `json:"count,omitempty"`
	Sum     float64           `json:"sum,omitempty"`
	Buckets []SampleBucket    `json:"buckets,omitempty"`
}

// FamilySnapshot is one metric family rendered as JSON — the
// machine-readable sibling of the Prometheus text exposition, which
// the store, the SLO engine and tests read metrics through.
type FamilySnapshot struct {
	Name    string   `json:"name"`
	Kind    string   `json:"kind"`
	Help    string   `json:"help,omitempty"`
	Samples []Sample `json:"samples"`
}

// Snapshot renders every family as JSON-able values, sorted by family
// name and series key for determinism. Collect hooks run first.
func (r *Registry) Snapshot() []FamilySnapshot {
	if r == nil {
		return nil
	}
	r.runHooks()
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		out = append(out, f.snapshot())
	}
	return out
}

func (f *family) snapshot() FamilySnapshot {
	f.mu.Lock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	series := make(map[string]interface{}, len(f.series))
	for k, v := range f.series {
		series[k] = v
	}
	f.mu.Unlock()
	sort.Strings(keys)

	fs := FamilySnapshot{
		Name:    f.name,
		Kind:    f.kind.String(),
		Help:    f.help,
		Samples: make([]Sample, 0, len(keys)),
	}
	for _, key := range keys {
		var sample Sample
		if len(f.labelNames) > 0 {
			values := strings.Split(key, "\x1f")
			sample.Labels = make(map[string]string, len(values))
			for i, n := range f.labelNames {
				if i < len(values) {
					sample.Labels[n] = values[i]
				}
			}
		}
		switch s := series[key].(type) {
		case *Counter:
			sample.Value = float64(s.Value())
		case *Gauge:
			sample.Value = s.Value()
		case *Histogram:
			sample.Count = s.Count()
			sample.Sum = s.Sum()
			var cum uint64
			for i, ub := range s.buckets {
				cum += s.counts[i].Load()
				sample.Buckets = append(sample.Buckets, SampleBucket{UpperBound: ub, Count: cum})
			}
		}
		fs.Samples = append(fs.Samples, sample)
	}
	return fs
}
