package fuzz

import (
	"testing"
	"time"

	"redotheory/internal/fault"
	"redotheory/internal/model"
	"redotheory/internal/obs"
	"redotheory/internal/sim"
	"redotheory/internal/workload"
)

// TestCleanGridAgrees is the fuzzer's own soundness check: over the full
// default method table, every clean cell must pass all six oracle legs.
// A failure here is a real recovery bug (or an oracle bug), never noise.
func TestCleanGridAgrees(t *testing.T) {
	rec := obs.New()
	rep, err := Run(Config{Seeds: 1, Histories: 1, MaxOps: 8, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Failures {
		t.Errorf("oracle disagreement: %s: %s: %s", f.Cell.String(), f.Check, f.Detail)
	}
	// 26 shapes across the 7 methods, 9 crash points each.
	if rep.Cells < 200 {
		t.Fatalf("grid covered only %d cells", rep.Cells)
	}
	if rep.Histories != 26 {
		t.Fatalf("histories = %d, want 26 (one per method × shape)", rep.Histories)
	}
	if len(rep.PartitionShapes) < 2 {
		t.Fatalf("partition-shape coverage %v is degenerate", rep.PartitionShapes)
	}
	if rep.RedoSizes < 2 {
		t.Fatalf("redo-size coverage %d is degenerate", rep.RedoSizes)
	}
	if got := rec.Snapshot().Counter(MCells); got != int64(rep.Cells) {
		t.Fatalf("recorder cells = %d, report says %d", got, rep.Cells)
	}
	if rec.Snapshot().Counter(MDisagreements) != 0 {
		t.Fatalf("recorder counted disagreements on a clean grid")
	}
}

// TestFaultCellsNeverSilent runs the Faults mode: every fault kind is
// exercised per history, and no cell may classify as silent corruption.
func TestFaultCellsNeverSilent(t *testing.T) {
	rep, err := Run(Config{Seeds: 1, Histories: 1, MaxOps: 8, Faults: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Failures {
		t.Errorf("failure: %s: %s: %s", f.Cell.String(), f.Check, f.Detail)
	}
	if len(rep.FaultKinds) != 6 {
		t.Fatalf("fault kinds exercised = %v, want all 6", rep.FaultKinds)
	}
	if rep.FaultCells != rep.Histories*6 {
		t.Fatalf("fault cells = %d, want %d (histories × kinds)", rep.FaultCells, rep.Histories*6)
	}
}

// TestRunIsDeterministic pins seeded reproducibility: two runs with the
// same config must produce identical coverage and cell counts.
func TestRunIsDeterministic(t *testing.T) {
	run := func() *Report {
		rep, err := Run(Config{Seeds: 2, Histories: 1, MaxOps: 6})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Cells != b.Cells || a.Histories != b.Histories || a.RedoSizes != b.RedoSizes {
		t.Fatalf("runs diverge: %+v vs %+v", a, b)
	}
	if len(a.PartitionShapes) != len(b.PartitionShapes) {
		t.Fatalf("partition-shape coverage diverges: %v vs %v", a.PartitionShapes, b.PartitionShapes)
	}
	for i := range a.PartitionShapes {
		if a.PartitionShapes[i] != b.PartitionShapes[i] {
			t.Fatalf("partition-shape coverage diverges at %d: %v vs %v", i, a.PartitionShapes, b.PartitionShapes)
		}
	}
}

// TestBudgetTruncatesCleanly pins the budget contract: an expired budget
// stops the grid and marks the report truncated instead of erroring.
func TestBudgetTruncatesCleanly(t *testing.T) {
	rep, err := Run(Config{Seeds: 100, Histories: 100, MaxOps: 8, Budget: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Truncated {
		t.Fatalf("nanosecond budget did not truncate the run: %d cells", rep.Cells)
	}
}

// TestInjectedOracleBugIsCaught wires a synthetic oracle bug through the
// test-only hook and asserts the fuzzer reports it: the differential
// harness itself (generation → execution → oracle → failure collection)
// detects a planted disagreement.
func TestInjectedOracleBugIsCaught(t *testing.T) {
	bug := func(ops []*model.Op, crash int) string {
		for _, op := range ops[:crash] {
			if op.WritesVar("pg01") {
				return "synthetic disagreement: pg01 written before the crash"
			}
		}
		return ""
	}
	rec := obs.New()
	rep, err := Run(Config{Seeds: 1, Histories: 1, MaxOps: 8, Recorder: rec, failCheck: bug})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) == 0 {
		t.Fatal("planted oracle bug produced no failures")
	}
	for _, f := range rep.Failures {
		if f.Check != "injected" {
			t.Fatalf("failure check = %q, want %q", f.Check, "injected")
		}
		if f.Artifact == nil {
			t.Fatal("failure carries no artifact")
		}
	}
	if got := rec.Snapshot().Counter(MDisagreements); got != int64(len(rep.Failures)) {
		t.Fatalf("recorder disagreements = %d, report has %d", got, len(rep.Failures))
	}
}

// TestExecuteHonorsLiteralZeroProbabilities: the crash loop takes a
// schedule's probabilities literally, so a schedule of zeros performs no
// background flushes, forces, or checkpoints. The shrinker's quiet
// schedule depends on it.
func TestExecuteHonorsLiteralZeroProbabilities(t *testing.T) {
	cell := mkCell(t, "physiological", 6, 6, sim.Sched{Seed: 7})
	db, err := sim.BuildCrashed(cell.Method.New, workload.InitialState(workload.Pages(cell.Pages)), cell.Ops, cell.Crash, cell.Sched, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.PageFlushes != 0 || st.Checkpoints != 0 {
		t.Fatalf("quiet schedule still flushed/checkpointed: %+v", st)
	}
	// Nothing was forced or stolen, so no operation survives the crash.
	if n := db.StableLog().Len(); n != 0 {
		t.Fatalf("quiet schedule left %d stable records", n)
	}
}

// TestFaultCellReportsTheScheduleThatRan: a fault cell is what runs, so
// its report re-creates the run. The cell carries the plan-seeded
// schedule, not the history's unseeded profile, the result carries the
// cell, and re-running it reproduces the outcome.
func TestFaultCellReportsTheScheduleThatRan(t *testing.T) {
	hist := mkCell(t, "physiological", 10, 0, sim.Sched{})
	profile := scheduleProfiles[1]
	for _, kind := range fault.Kinds() {
		cell := faultCell(hist, profile, kind)
		plan := cell.Fault
		if cell.Sched.Seed == 0 || cell.Sched.Seed == plan.Seed {
			t.Fatalf("%s: schedule seed %d is not derived from plan seed %d", kind, cell.Sched.Seed, plan.Seed)
		}
		want := profile
		want.Seed = cell.Sched.Seed
		if cell.Sched != want || cell.Crash != len(hist.Ops)/2 || plan.Kind != kind {
			t.Fatalf("%s: cell schedule %+v crash %d, want profile %+v crash %d", kind, cell.Sched, cell.Crash, want, len(hist.Ops)/2)
		}
		a, err := sim.Run(cell, sim.LegFaulted)
		if err != nil {
			t.Fatal(err)
		}
		if a.Cell.Sched != cell.Sched || a.Cell.Crash != cell.Crash || a.Fault == nil {
			t.Fatalf("%s: the faulted leg ran seed %d crash %d, cell reports seed %d crash %d", kind, a.Cell.Sched.Seed, a.Cell.Crash, cell.Sched.Seed, cell.Crash)
		}
		b, err := sim.Run(cell, sim.LegFaulted)
		if err != nil {
			t.Fatal(err)
		}
		if a.Fault.Outcome != b.Fault.Outcome || len(a.Fault.Fired) != len(b.Fault.Fired) || len(a.Fault.Detections) != len(b.Fault.Detections) {
			t.Fatalf("%s: re-running the reported cell gave %s, first run %s", kind, b.Fault.Outcome, a.Fault.Outcome)
		}
	}
}

// TestInjectedBugArtifactCarriesFlightDump: a planted oracle bug must
// produce a repro artifact whose flight dump is non-empty and valid —
// the telemetry ring leading into the disagreement ships with the
// repro. With shrinking on, the dump is re-captured against the
// minimized cell.
func TestInjectedBugArtifactCarriesFlightDump(t *testing.T) {
	bug := func(ops []*model.Op, crash int) string {
		if crash > 0 {
			return "synthetic disagreement at any non-trivial crash point"
		}
		return ""
	}
	for _, shrink := range []bool{false, true} {
		rep, err := Run(Config{Seeds: 1, Histories: 1, MaxOps: 8, Shrink: shrink, failCheck: bug})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Failures) == 0 {
			t.Fatalf("shrink=%v: planted bug produced no failures", shrink)
		}
		for _, f := range rep.Failures {
			if f.Artifact == nil {
				t.Fatalf("shrink=%v: failure carries no artifact", shrink)
			}
			fl := f.Artifact.Flight
			if fl == nil {
				t.Fatalf("shrink=%v: artifact carries no flight dump", shrink)
			}
			if err := fl.Validate(); err != nil {
				t.Fatalf("shrink=%v: %v", shrink, err)
			}
			if len(fl.Events) == 0 {
				t.Fatalf("shrink=%v: flight dump is empty", shrink)
			}
			// The artifact round-trips with the dump attached.
			data, err := f.Artifact.Encode()
			if err != nil {
				t.Fatal(err)
			}
			back, err := DecodeArtifact(data)
			if err != nil {
				t.Fatal(err)
			}
			if back.Flight == nil || len(back.Flight.Events) != len(fl.Events) {
				t.Fatalf("shrink=%v: flight dump lost in round trip", shrink)
			}
		}
	}
}

// TestSupervisedLegPreservesCrashSnapshots: the oracle threads the
// flight ring into its supervised leg, so every nested crash the
// schedule injects leaves a labeled snapshot in the ring — even when
// the leg then converges (the leg's attempt budget always exceeds the
// schedule, so convergence is the only terminal outcome here).
func TestSupervisedLegPreservesCrashSnapshots(t *testing.T) {
	// No page flushes and a forced log: every stable op needs redo, so
	// the supervised attempts have installs for the schedule to crash.
	cell := mkCell(t, "physiological", 8, 8, sim.Sched{Seed: 3, ForceProb: 1})
	cell.Nested = sim.Nested{Crashes: []int{0, 1}, Every: 2, Seed: 3}
	rec := obs.New()
	flight := obs.NewFlightRecorder(512)
	rec.SetSink(flight)
	cell.Recorder = rec
	res, err := sim.Run(cell, sim.CleanLegs)
	rec.SetSink(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("clean cell disagreed: %s: %s", res.Check, res.Detail)
	}
	d := flight.Dump()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(d.Snapshots); got != len(cell.Nested.Crashes) {
		t.Fatalf("%d crash snapshots preserved, want one per nested crash (%d)", got, len(cell.Nested.Crashes))
	}
	for i, s := range d.Snapshots {
		if s.Label == "" || len(s.Events) == 0 {
			t.Fatalf("snapshot %d is unlabeled or empty", i)
		}
	}
}
