//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchSpec is BENCHMARK.json: the one place that names the
// workloads, the metrics, their units and the regression bounds.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*benchSpec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// render pairs each metric the spec lists with its measured value; a
// listed metric nothing measured is a harness bug, not a zero.
func (s *benchSpec) render(specs []metricSpec, values map[string]float64) (map[string]metricJSON, error) {
	out := make(map[string]metricJSON, len(specs))
	for _, m := range specs {
		v, ok := values[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is in BENCHMARK.json but was not measured", m.Name)
		}
		out[m.Name] = metricJSON{Value: v, Unit: m.Unit}
	}
	return out, nil
}
