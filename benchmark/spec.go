package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// BENCHMARK.json at the root of the repo is the one statement of the
// workload names, the metric names, their units, directions and bounds.
// The program emits exactly the metrics listed there: setting a name it
// does not list is a bug (panic), and -compare reads the bounds from it.

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// locate finds BENCHMARK.json from the working directory — the root of
// the checkout, or benchmark/ under run.sh, `go run -C benchmark .` and
// `go test` — and returns it with the directory outputs go to.
func locate() (spec *benchSpec, outDir string, err error) {
	for _, c := range []struct{ file, out string }{
		{"BENCHMARK.json", filepath.Join("benchmark", "out")},
		{filepath.Join("..", "BENCHMARK.json"), "out"},
	} {
		raw, rerr := os.ReadFile(c.file)
		if rerr != nil {
			continue
		}
		spec = &benchSpec{}
		if err := json.Unmarshal(raw, spec); err != nil {
			return nil, "", fmt.Errorf("%s: %w", c.file, err)
		}
		return spec, c.out, nil
	}
	return nil, "", fmt.Errorf("BENCHMARK.json not found in . or ..")
}

func (s *benchSpec) workloadNames() []string {
	out := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		out[i] = w.Name
	}
	return out
}

// metricSet collects the values of one run against one list of
// definitions (end-to-end or per-layer).
type metricSet struct {
	defs []metricDef
	vals map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, vals: make(map[string]float64, len(defs))}
}

// set records a value. A name BENCHMARK.json does not list, or a second
// value for the same name, is a programming error.
func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.Name == name {
			if _, dup := m.vals[name]; dup {
				panic("benchmark: metric set twice: " + name)
			}
			m.vals[name] = v
			return
		}
	}
	panic("benchmark: metric not in BENCHMARK.json: " + name)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// values returns every defined metric with its unit. A per-layer metric
// nobody set reads 0: the workload does not enter that layer.
func (m *metricSet) values() map[string]metricValue {
	out := make(map[string]metricValue, len(m.defs))
	for _, d := range m.defs {
		out[d.Name] = metricValue{Value: m.vals[d.Name], Unit: d.Unit}
	}
	return out
}

// missing lists the defined metrics that were never set.
func (m *metricSet) missing() []string {
	var out []string
	for _, d := range m.defs {
		if _, ok := m.vals[d.Name]; !ok {
			out = append(out, d.Name)
		}
	}
	return out
}
