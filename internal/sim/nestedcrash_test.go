package sim

import (
	"testing"

	"redotheory/internal/obs"
	"redotheory/internal/supervise"
)

// TestNestedCrashCampaignConverges is the E-series headline: across
// every method × seed × crash point × nested-crash schedule, supervised
// recovery converges to the oracle's determined state with strictly
// monotone install progress.
func TestNestedCrashCampaignConverges(t *testing.T) {
	metrics := NewCampaignMetrics()
	results, err := NestedCrashCampaign(Grid{
		Methods:     namedFactories(),
		Ops:         10,
		Pages:       4,
		Seeds:       []int64{1, 2},
		CrashPoints: []int{5, 10},
		Metrics:     metrics,
	}, NestedSchedules, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	sum := SummarizeNestedCrash(results)
	wantRuns := 7 * 2 * 2 * len(NestedSchedules)
	if sum.Runs != wantRuns {
		t.Errorf("runs = %d, want %d", sum.Runs, wantRuns)
	}
	for _, r := range results {
		if !r.OK() {
			t.Errorf("FAIL %s: %s: %s", r.Cell.String(), r.Check, r.Detail)
		}
	}
	if sum.NonConverged != 0 || sum.OracleMismatches != 0 || sum.MonotoneViolations != 0 || sum.Errors != 0 {
		t.Fatalf("summary: %+v", sum)
	}
	// Schedules with crashes must actually have injected them.
	if sum.TotalCrashes == 0 {
		t.Error("no nested crashes injected across the whole grid")
	}

	// The supervise counters land in the per-method metrics rollup and
	// the v1 report validates with them present.
	rep := metrics.Report("test -nested-crash")
	if err := rep.Validate(); err != nil {
		t.Fatalf("metrics report invalid: %v", err)
	}
	snaps := metrics.Snapshots()
	for _, name := range []string{"physiological", "grouplsn"} {
		snap := snaps[name]
		if snap.Counters[obs.MSupAttempts] == 0 {
			t.Errorf("%s: no supervise attempts recorded", name)
		}
		if snap.Counters[obs.MSupCrashes] == 0 {
			t.Errorf("%s: no nested crashes recorded", name)
		}
	}
}

// TestNestedCrashCampaignDeterministic: worker-pool execution returns
// byte-identical verdicts to the sequential sweep.
func TestNestedCrashCampaignDeterministic(t *testing.T) {
	g := Grid{
		Methods:     namedFactories()[:3],
		Ops:         8,
		Pages:       4,
		Seeds:       []int64{7},
		CrashPoints: []int{8},
	}
	schedules := [][]int{{0}, {2, 1}}
	seq, err := NestedCrashCampaign(g, schedules, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	g.Workers = 4
	par, err := NestedCrashCampaign(g, schedules, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("len %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		a, b := seq[i].Supervised, par[i].Supervised
		if seq[i].Cell.Method.Name != par[i].Cell.Method.Name || a.Converged != b.Converged || len(a.Attempts) != len(b.Attempts) ||
			a.TotalInstalls != b.TotalInstalls || a.CrashesInjected != b.CrashesInjected ||
			string(a.Rung) != string(b.Rung) {
			t.Errorf("cell %d differs: %+v vs %+v", i, a, b)
		}
	}
}

// TestNestedCrashDescendingStorm: the descending schedule {2,1,0} kills
// each retry earlier than the last — the adversarial case progress
// checkpoints exist for. With K=1 the first attempt's two installs are
// checkpointed, so later attempts still sit at or past that prefix and
// the cell converges.
func TestNestedCrashDescendingStorm(t *testing.T) {
	results, err := NestedCrashCampaign(Grid{
		Methods:     []NamedFactory{namedFactories()[2]}, // physiological
		Ops:         10,
		Pages:       4,
		Seeds:       []int64{3},
		CrashPoints: []int{10},
	}, [][]int{{2, 1, 0}}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].OK() {
		t.Fatalf("storm cell failed: %s: %s", results[0].Check, results[0].Detail)
	}
	r := results[0].Supervised
	if r.CrashesInjected != 3 {
		t.Errorf("crashes = %d, want 3", r.CrashesInjected)
	}
	if r.ProgressCheckpoints == 0 {
		t.Error("no progress checkpoints under the storm schedule")
	}
	if r.Rung == supervise.RungDegraded {
		// Three pre-install crashes escalate, but the run should finish
		// before needing degraded repair (nothing is actually damaged).
		t.Logf("note: storm cell finished on the degraded rung")
	}
}
