package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"redotheory/internal/rtrace"
)

// tinySizes keep the smoke under ten seconds; with a zero budget every
// timed path runs its minimum iteration count.
var tinySizes = sizes{coldOps: 1500, coldPages: 96, dptOps: 200, dptPages: 24,
	fwdOps: 3000, fwdPages: 64, shards: 2, shardPages: 8, shardOps: 300}

// benchmarkJSON is the driver's description of the benchmark.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []benchMetric `json:"end_to_end"`
	PerLayer   []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesSpec keeps BENCHMARK.json and spec.go in step
// and holds both to the driver's limits on names and units.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	b := readBenchmarkJSON(t)
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, spec.go has {%s %s}", i, b.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	compare := func(kind string, got []benchMetric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in spec.go", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s %d: BENCHMARK.json has %s/%s/%s, spec.go has %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, m.Name, m.Unit, m.Better)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != m.Bound || m.Bound <= 0 || m.Bound > 0.25)) {
				t.Errorf("%s: bound %v in BENCHMARK.json, %v in spec.go", m.Name, g.Bound, m.Bound)
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
				t.Errorf("%s (%s): name or unit outside the driver's alphabet", m.Name, m.Unit)
			}
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("%s: better is %q", m.Name, m.Better)
			}
			if seen[m.Name] {
				t.Errorf("%s is listed twice", m.Name)
			}
			seen[m.Name] = true
			for _, w := range m.Focus {
				if workloadByName(w) == nil {
					t.Errorf("%s: unknown focus workload %q", m.Name, w)
				}
			}
		}
	}
	compare("end_to_end", b.EndToEnd, endToEnd, true)
	compare("per_layer", b.PerLayer, perLayer, false)
}

// TestSmoke runs every workload at tiny sizes, untraced and traced,
// twice: every metric of the run's kind is emitted exactly once, finite;
// the oracles pass; exact counts repeat; the trace artifact is valid.
func TestSmoke(t *testing.T) {
	// A layer metric that may honestly read 0 on a focus workload.
	mayBeZero := map[string]bool{"failed_share": true, "shard.dropped_records": true, "serve.swept_components": true}
	out := t.TempDir()
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			specs := metricsFor(traced)
			var runs [2]*result
			for n := range runs {
				res, err := runOne(w, tinySizes, 1, 0, 0, traced, out)
				if err != nil {
					t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
				}
				if res.failed != 0 || res.attempted == 0 {
					t.Errorf("%s traced=%v: %d of %d oracle checks failed: %v", w.Name, traced, res.failed, res.attempted, res.failures)
				}
				if len(res.values) != len(specs) {
					t.Errorf("%s traced=%v: %d metrics emitted, %d specified", w.Name, traced, len(res.values), len(specs))
				}
				runs[n] = res
			}
			for _, m := range specs {
				v, ok := runs[0].values[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s not emitted", w.Name, traced, m.Name)
				case math.IsNaN(v) || math.IsInf(v, 0) || v < 0:
					t.Errorf("%s: %s = %v", w.Name, m.Name, v)
				case v == 0 && !mayBeZero[m.Name] && (!traced || m.focusOn(w.Name)):
					t.Errorf("%s: %s is 0", w.Name, m.Name)
				case v != 0 && traced && !m.focusOn(w.Name):
					t.Errorf("%s: %s = %v off its focus workloads", w.Name, m.Name, v)
				}
				if m.Exact && v != runs[1].values[m.Name] {
					t.Errorf("%s: exact count %s differs between two runs: %v, %v", w.Name, m.Name, v, runs[1].values[m.Name])
				}
			}
		}
		tr, err := rtrace.ReadFile(filepath.Join(out, "trace-"+w.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Check(); err != nil {
			t.Errorf("%s: trace artifact: %v", w.Name, err)
		}
	}
}
