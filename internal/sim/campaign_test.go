package sim

import (
	"testing"

	"redotheory/internal/fault"
	"redotheory/internal/method"
	"redotheory/internal/model"
	"redotheory/internal/workload"
)

func namedFactories() []NamedFactory {
	return []NamedFactory{
		{"logical", func(s *model.State) method.DB { return method.NewLogical(s) }},
		{"physical", func(s *model.State) method.DB { return method.NewPhysical(s) }},
		{"physiological", func(s *model.State) method.DB { return method.NewPhysiological(s) }},
		{"physiological+dpt", func(s *model.State) method.DB { return method.NewPhysiologicalDPT(s) }},
		{"genlsn", func(s *model.State) method.DB { return method.NewGenLSN(s) }},
		{"genlsn+mv", func(s *model.State) method.DB { return method.NewGenLSNMV(s) }},
		{"grouplsn", func(s *model.State) method.DB { return method.NewGroupLSN(s) }},
	}
}

// TestCampaignNoSilentCorruption is the headline robustness assertion:
// across every method × fault kind × crash point × seed, no run is ever
// silently corrupt — each fault is repaired, degraded, detected as
// unrecoverable, or provably never fired.
func TestCampaignNoSilentCorruption(t *testing.T) {
	results, err := Campaign(CampaignConfig{
		Methods:      namedFactories(),
		NumOps:       10,
		NumPages:     4,
		CrashPoints:  []int{0, 5, 10},
		Seeds:        []int64{1, 2},
		TruncateProb: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := SummarizeCampaign(results)
	wantRuns := 7 * len(fault.Kinds()) * 3 * 2
	if sum.Runs != wantRuns {
		t.Errorf("runs = %d, want %d", sum.Runs, wantRuns)
	}
	if sum.Silent != 0 {
		for _, r := range results {
			if r.Outcome == SilentCorruption {
				t.Errorf("SILENT: %s/%s crash=%d seed=%d detections=%v",
					r.Method, r.Kind, r.CrashAfter, r.Seed, r.Detections)
			}
		}
		t.Fatalf("%d silent corruptions", sum.Silent)
	}
	// Fault kinds that fire must sometimes be visible in the outcomes —
	// a campaign where nothing ever fires proves nothing.
	fired := 0
	for _, r := range results {
		if r.Outcome == RecoveredDegraded || r.Outcome == DetectedUnrecoverable {
			fired++
		}
	}
	if fired == 0 {
		t.Error("no run ever degraded or detected; campaign exercised nothing")
	}
}

// TestCampaignKindsObserved checks each fault kind produces at least one
// detection somewhere in the matrix (at nonzero crash points it has
// material to bite on).
func TestCampaignKindsObserved(t *testing.T) {
	results, err := Campaign(CampaignConfig{
		Methods:     namedFactories(),
		NumOps:      12,
		NumPages:    4,
		CrashPoints: []int{6, 12},
		Seeds:       []int64{3, 4, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := SummarizeCampaign(results)
	for _, k := range fault.Kinds() {
		by := sum.ByKind[k]
		if by[SilentCorruption] != 0 {
			t.Errorf("%s: %d silent corruptions", k, by[SilentCorruption])
		}
		if by[RecoveredDegraded]+by[DetectedUnrecoverable] == 0 {
			t.Errorf("%s: never detected anywhere in the matrix: %v", k, by)
		}
	}
	if len(sum.Methods()) != 7 {
		t.Errorf("methods = %v", sum.Methods())
	}
}

// TestRunFaultedLostWrite pins one scenario end to end: a lost page
// write under physiological recovery is either caught (stale below a
// checkpoint floor) or harmless (indistinguishable from an unflushed
// page), never silent.
func TestRunFaultedLostWrite(t *testing.T) {
	pages := workload.Pages(3)
	s0 := workload.InitialState(pages)
	ops, err := workload.ForMethod("physiological", 10, pages, 9)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 5; seed++ {
		r, err := RunFaulted(factories["physiological"], Config{
			Ops: ops, Initial: s0, CrashAfter: 10,
			Sched: Sched{Seed: seed, FlushProb: 0.3, ForceProb: 0.2, CheckpointProb: 0.1, TruncateProb: 1},
		}, fault.Plan{Seed: seed, Kind: fault.LostWrite})
		if err != nil {
			t.Fatal(err)
		}
		if r.Outcome == SilentCorruption {
			t.Fatalf("seed %d: silent corruption: %+v", seed, r)
		}
	}
}

// TestRunFaultedCrashInRecovery pins the double-crash scenario: recovery
// itself dies mid-repair and the rerun must converge.
func TestRunFaultedCrashInRecovery(t *testing.T) {
	pages := workload.Pages(4)
	s0 := workload.InitialState(pages)
	ops, err := workload.ForMethod("grouplsn", 8, pages, 2)
	if err != nil {
		t.Fatal(err)
	}
	sawDegraded := false
	for seed := int64(1); seed <= 6; seed++ {
		r, err := RunFaulted(factories["grouplsn"], Config{
			Ops: ops, Initial: s0, CrashAfter: 8, Sched: DefaultSched(seed),
		}, fault.Plan{Seed: seed, Kind: fault.CrashInRecovery})
		if err != nil {
			t.Fatal(err)
		}
		if r.Outcome == SilentCorruption {
			t.Fatalf("seed %d: silent corruption: %+v", seed, r)
		}
		if r.Outcome == RecoveredDegraded {
			sawDegraded = true
		}
	}
	if !sawDegraded {
		t.Error("crash-in-recovery never degraded across six seeds")
	}
}

// --- sweep/summary edge cases (satellite) ---

// TestSweepEmptyOps: a sweep over an empty op list is a single crash-at-0
// run that recovers trivially.
func TestSweepEmptyOps(t *testing.T) {
	s0 := workload.InitialState(workload.Pages(2))
	results, err := Sweep(factories["physiological"], nil, s0, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("results = %d, want 1", len(results))
	}
	r := results[0]
	if !r.Recovered || !r.InvariantOK {
		t.Errorf("empty-ops run failed: %+v", r)
	}
}

// TestRunCrashAtZero: crashing before any op executes recovers to the
// initial state.
func TestRunCrashAtZero(t *testing.T) {
	pages := workload.Pages(3)
	s0 := workload.InitialState(pages)
	ops, err := workload.ForMethod("physical", 5, pages, 4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(factories["physical"], Config{Ops: ops, Initial: s0, CrashAfter: 0, Sched: DefaultSched(1)})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Recovered || !r.InvariantOK {
		t.Fatalf("crash-at-0 run failed: %+v", r)
	}
	if r.Replayed != 0 {
		t.Errorf("replayed %d records from an empty log", r.Replayed)
	}
}

// TestSummarizeZeroResults: summarizing nothing must not panic or divide
// by zero.
func TestSummarizeZeroResults(t *testing.T) {
	sum := Summarize(nil)
	if sum.Runs != 0 {
		t.Errorf("runs = %d", sum.Runs)
	}
	if got := sum.RedoSelectivity(); got != 0 {
		t.Errorf("RedoSelectivity() = %v, want 0", got)
	}
	csum := SummarizeCampaign(nil)
	if csum.Runs != 0 || csum.Silent != 0 || len(csum.Methods()) != 0 {
		t.Errorf("empty campaign summary: %+v", csum)
	}
}

// TestSummaryRates: the guarded rates compute ordinary fractions on a
// real sweep.
func TestSummaryRates(t *testing.T) {
	pages := workload.Pages(3)
	s0 := workload.InitialState(pages)
	ops, err := workload.ForMethod("physiological", 6, pages, 8)
	if err != nil {
		t.Fatal(err)
	}
	results, err := Sweep(factories["physiological"], ops, s0, 5, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	sum := Summarize(results)
	if sum.Recovered != sum.Runs {
		t.Errorf("recovered %d of %d runs, want all", sum.Recovered, sum.Runs)
	}
	if got := sum.RedoSelectivity(); got < 0 || got > 1 {
		t.Errorf("RedoSelectivity() = %v out of [0,1]", got)
	}
}
