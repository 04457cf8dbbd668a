package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// benchSpec is BENCHMARK.json: the one place metric names, units,
// directions and bounds are declared. The program reads it so that what it
// prints and what -compare judges cannot drift from what the driver checks.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the benchmark contract (run from the repository root): %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *benchSpec) workloadNames() []string {
	names := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		names[i] = w.Name
	}
	return names
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// declared lists the metrics a run of the given kind must report.
func (s *benchSpec) declared(trace bool) []specMetric {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

// result turns an outcome into the result line: exactly the declared
// metrics, no others. An end-to-end metric a workload failed to measure is
// an error; a layer a workload does not reach reports 0.
func (s *benchSpec) result(o *outcome, trace bool) (*runResult, error) {
	measured := o.e2e
	if trace {
		measured = o.layer
	}
	res := &runResult{
		Correct: len(o.violations) == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: map[string]metricValue{},
	}
	for _, m := range s.declared(trace) {
		v, ok := measured[m.Name]
		if !ok && !trace {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for name := range measured {
		if _, ok := res.Metrics[name]; !ok {
			return nil, fmt.Errorf("metric %s is measured but not declared in BENCHMARK.json", name)
		}
	}
	return res, nil
}
