package sim

import (
	"sort"
	"testing"

	"redotheory/internal/fault"
	"redotheory/internal/method"
	"redotheory/internal/model"
	"redotheory/internal/obs"
	"redotheory/internal/workload"
)

// TestSummarizeEmpty: every derived statistic must guard its empty
// denominator — Summarize(nil) yields zeros, not panics or NaNs.
func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Runs != 0 {
		t.Fatalf("Runs = %d, want 0", s.Runs)
	}
	if got := s.RedoSelectivity(); got != 0 {
		t.Errorf("RedoSelectivity on an empty sweep = %v, want 0", got)
	}
	if s.ReplayedP50 != 0 || s.ReplayedP99 != 0 || s.WallP50 != 0 || s.WallP99 != 0 || s.Wall != 0 {
		t.Errorf("empty-sweep percentiles nonzero: %+v", s)
	}
}

func TestPercentileInt64(t *testing.T) {
	if got := percentileInt64(nil, 50); got != 0 {
		t.Errorf("percentile of nil = %d, want 0", got)
	}
	vs := []int64{5, 1, 9, 3, 7}
	if got := percentileInt64(vs, 50); got != 5 {
		t.Errorf("p50 = %d, want 5", got)
	}
	if got := percentileInt64(vs, 99); got != 9 {
		t.Errorf("p99 = %d, want 9", got)
	}
	if got := percentileInt64(vs, 0); got != 1 {
		t.Errorf("p0 = %d, want 1 (clamped to smallest)", got)
	}
	// The input must survive untouched (Summarize reuses its slices).
	if vs[0] != 5 || vs[4] != 7 {
		t.Errorf("percentileInt64 mutated its input: %v", vs)
	}
}

// TestSweepObservedSummary: an observed sweep populates the percentile
// and wall-clock fields, and the recorder's counters agree with the
// summary's totals.
func TestSweepObservedSummary(t *testing.T) {
	pages := workload.Pages(4)
	ops := workload.SinglePage(12, pages, 3, false)
	rec := obs.New()
	rs, err := Sweep(func(s *model.State) method.DB { return method.NewPhysiological(s) },
		ops, workload.InitialState(pages), 11, 2, rec)
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(rs)
	if s.Recovered != s.Runs {
		t.Fatalf("recovered %d/%d", s.Recovered, s.Runs)
	}
	if s.Wall == 0 {
		t.Error("summed recovery wall clock is zero")
	}
	if s.WallP99 < s.WallP50 {
		t.Errorf("WallP99 %v < WallP50 %v", s.WallP99, s.WallP50)
	}
	if s.ReplayedP99 < s.ReplayedP50 {
		t.Errorf("ReplayedP99 %d < ReplayedP50 %d", s.ReplayedP99, s.ReplayedP50)
	}
	// Both the sequential and parallel pass examine every record, so the
	// recorder holds twice the summary's totals; selectivity is invariant
	// under that doubling.
	if got := rec.Snapshot().Counter(obs.MRedoExamined); got != 2*int64(s.Examined) {
		t.Errorf("recorder examined %d, summary %d (want 2x: both passes)", got, s.Examined)
	}
	// Crash points 0..len(ops) execute 0+1+...+len(ops) operations.
	want := int64(len(ops) * (len(ops) + 1) / 2)
	if got := rec.Snapshot().Counter(obs.MDBExec); got != want {
		t.Errorf("db.exec = %d, want %d", got, want)
	}
}

// TestCampaignMetricsRollup: a campaign with Metrics attached produces a
// validating v1 report whose methods match the campaign's, with the full
// phase breakdown from the observed clean-cell parallel passes.
func TestCampaignMetricsRollup(t *testing.T) {
	metrics := NewCampaignMetrics()
	cfg := CampaignConfig{
		Methods: []NamedFactory{
			{Name: "physiological", New: func(s *model.State) method.DB { return method.NewPhysiological(s) }},
			{Name: "logical", New: func(s *model.State) method.DB { return method.NewLogical(s) }},
		},
		Kinds:   []fault.Kind{fault.LostWrite, fault.PageBitRot},
		Seeds:   []int64{1, 2},
		Workers: 4,
		Metrics: metrics,
	}
	rs, err := Campaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Fatal("no campaign results")
	}
	rep := metrics.Report("test -campaign")
	if err := rep.Validate(); err != nil {
		t.Fatalf("campaign metrics report: %v", err)
	}
	var names []string
	for name := range rep.Methods {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) != 2 || names[0] != "logical" || names[1] != "physiological" {
		t.Fatalf("report methods = %v", names)
	}
	for _, name := range names {
		s := rep.Methods[name]
		if s.Counter(obs.MDBExec) == 0 {
			t.Errorf("%s: no executed operations recorded", name)
		}
		if s.Counter(obs.MRedoExamined) == 0 {
			t.Errorf("%s: no examined records recorded", name)
		}
	}
	if rep.Totals.Samples[obs.MPartitionWidth].Count == 0 {
		t.Error("no partition widths observed across the campaign")
	}
}

// TestCampaignMetricsNil: a nil aggregator hands out nil (disabled)
// recorders, so the zero-config path stays zero-cost.
func TestCampaignMetricsNil(t *testing.T) {
	var cm *CampaignMetrics
	if r := cm.Recorder("any"); r != nil {
		t.Fatalf("nil aggregator returned a live recorder: %v", r)
	}
}
