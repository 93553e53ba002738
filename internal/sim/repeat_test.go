package sim

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"redotheory/internal/fault"
	"redotheory/internal/method"
	"redotheory/internal/model"
	"redotheory/internal/obs"
	"redotheory/internal/workload"
)

// timingDependent lists the only metrics a repeated grid may report
// differently, each with the reason it depends on scheduling rather than
// on the grid's seeds.
// repeatChildEnv, when set, makes TestMetricsRepeatable the fresh
// process: it runs the grid once and writes the report to that path.
const repeatChildEnv = "REDOTHEORY_METRICS_REPEAT_OUT"

var timingDependent = map[string]string{
	obs.MReplayComponents: "counts components replayed by the pool, and where the parallel pipeline hands its unreplayed tail to the pool depends on timing",
	obs.GPartitionLargest: "the widest component of the last plan observed, and which plan is last depends on which worker finishes last",
}

// TestMetricsRepeatable runs one small grid — the crash-matrix legs,
// whose invariant leg builds a checker per cell, then the media-fault
// campaign — on one worker in a fresh process and, after it has run
// once here, on four workers in this one, and requires every counter
// and gauge to agree apart from timingDependent. A metric that depends
// on what the process did before, such as the hit count of a
// process-wide memo, differs between the fresh and the warm process.
func TestMetricsRepeatable(t *testing.T) {
	methods := []NamedFactory{
		{Name: "physiological", New: func(s *model.State) method.DB { return method.NewPhysiological(s) }},
		{Name: "logical", New: func(s *model.State) method.DB { return method.NewLogical(s) }},
	}
	run := func(workers int) *obs.Report {
		metrics := NewCampaignMetrics()
		g := Grid{Methods: methods, Ops: 10, Pages: 4, CrashPoints: []int{0, 10}, Seeds: []int64{1, 2}, Workers: workers, Metrics: metrics}
		var cells []Cell
		for _, m := range methods {
			ops, err := workload.ForMethod(m.Name, g.Ops, workload.Pages(g.Pages), 3)
			if err != nil {
				t.Fatal(err)
			}
			for crash := 0; crash <= len(ops); crash += 2 {
				cells = append(cells, Cell{Method: m, Seed: 3, Pages: g.Pages, Ops: ops, Crash: crash,
					Sched: DefaultSched(int64(crash)), Workers: 2, Recorder: metrics.Recorder(m.Name)})
			}
		}
		if _, err := runCells(cells, MatrixLegs, workers); err != nil {
			t.Fatal(err)
		}
		if _, err := Campaign(g, []fault.Kind{fault.LostWrite}, 0.3); err != nil {
			t.Fatal(err)
		}
		return metrics.Report("test")
	}
	if path := os.Getenv(repeatChildEnv); path != "" {
		if err := run(1).WriteFile(path); err != nil {
			t.Fatal(err)
		}
		return
	}
	path := filepath.Join(t.TempDir(), "fresh.json")
	cmd := exec.Command(os.Args[0], "-test.run=^TestMetricsRepeatable$")
	cmd.Env = append(os.Environ(), repeatChildEnv+"="+path)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("fresh-process run: %v\n%s", err, out)
	}
	first, err := obs.ReadReportFile(path)
	if err != nil {
		t.Fatal(err)
	}
	run(4)
	second := run(4)
	for name, a := range first.Methods {
		b := second.Methods[name]
		if b == nil {
			t.Errorf("%s: missing from the second run", name)
			continue
		}
		diff := func(kind string, x, y map[string]int64) {
			for k, v := range x {
				if _, ok := timingDependent[k]; !ok && y[k] != v {
					t.Errorf("%s: %s %s = %d in a fresh process on one worker, %d in a warm one on four", name, kind, k, v, y[k])
				}
			}
			for k := range y {
				if _, ok := x[k]; !ok {
					t.Errorf("%s: %s %s appears only in the warm process", name, kind, k)
				}
			}
		}
		diff("counter", a.Counters, b.Counters)
		diff("gauge", a.Gauges, b.Gauges)
	}
	if len(first.Methods) != len(methods) || len(second.Methods) != len(methods) {
		t.Errorf("reports cover %d and %d methods, want %d", len(first.Methods), len(second.Methods), len(methods))
	}
}
