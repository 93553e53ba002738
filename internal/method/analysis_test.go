package method

import (
	"math/rand"
	"runtime"
	"testing"

	"redotheory/internal/core"
	"redotheory/internal/graph"
	"redotheory/internal/model"
	"redotheory/internal/workload"
)

// countingDPT is physiological+dpt with an Analyze that records every
// invocation and the checkpoint it was handed.
type countingDPT struct {
	*PhysiologicalDPT
	calls       int
	checkpoints []graph.Set[model.OpID]
}

func (c *countingDPT) Analyze() core.AnalyzeFunc {
	inner := c.PhysiologicalDPT.Analyze()
	return func(s *model.State, l *core.Log, ck graph.Set[model.OpID]) core.Analysis {
		c.calls++
		c.checkpoints = append(c.checkpoints, ck)
		return inner(s, l, ck)
	}
}

// hotPageCrashed executes n HotPage operations with a seeded schedule of
// page flushes and log forces and one checkpoint a quarter of the way in,
// forces the log, and crashes: the unrecovered tail is 3n/4 records, so
// recovery's work scales with n.
func hotPageCrashed(t testing.TB, mk func(*model.State) DB, n int) DB {
	t.Helper()
	ps := workload.Pages(32)
	db := mk(initialState(ps))
	rng := rand.New(rand.NewSource(7))
	for i, op := range workload.HotPage(n, ps, 7) {
		if err := db.Exec(op); err != nil {
			t.Fatalf("%s: exec op %d: %v", db.Name(), i, err)
		}
		if rng.Float64() < 0.3 {
			db.FlushOne()
		}
		if rng.Float64() < 0.2 {
			db.FlushLog()
		}
		if i == n/4 {
			if err := db.Checkpoint(); err != nil {
				t.Fatalf("%s: checkpoint: %v", db.Name(), err)
			}
		}
	}
	db.FlushLog()
	db.Crash()
	return db
}

// TestAnalysisRunsOncePerRecovery pins the run-once contract at the
// method level: Recover, RecoverParallel, and every recoverInstalling
// pass — run to completion, stopped early, stopped before its first
// record, and restarted — invoke the analysis exactly once each, with the
// checkpoint the pass was run with. Plain physiological has no analysis
// to invoke at all.
func TestAnalysisRunsOncePerRecovery(t *testing.T) {
	db := &countingDPT{PhysiologicalDPT: hotPageCrashed(t, func(s *model.State) DB { return NewPhysiologicalDPT(s) }, 200).(*PhysiologicalDPT)}
	want := 0
	expectOneMore := func(what string) {
		t.Helper()
		want++
		if db.calls != want {
			t.Fatalf("%s: analysis calls = %d, want %d", what, db.calls, want)
		}
		got, ck := db.checkpoints[want-1], db.Checkpointed()
		if len(got) != len(ck) || len(ck) == 0 {
			t.Fatalf("%s: analysis got a %d-op checkpoint, recovery ran with %d", what, len(got), len(ck))
		}
		for id := range ck {
			if !got.Has(id) {
				t.Fatalf("%s: analysis checkpoint lacks op %d", what, id)
			}
		}
	}
	if _, err := Recover(db); err != nil {
		t.Fatal(err)
	}
	expectOneMore("Recover")
	if _, err := RecoverParallel(db, ParallelOptions{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	expectOneMore("RecoverParallel")
	for _, stop := range []int{0, 3, 5, -1} {
		n, done, err := recoverInstalling(db, stop)
		if err != nil {
			t.Fatal(err)
		}
		if done != (stop < 0) || (stop >= 0 && n != stop) {
			t.Fatalf("recoverInstalling(stop=%d) redid %d, done=%v", stop, n, done)
		}
		expectOneMore("recoverInstalling")
	}
	if NewPhysiological(model.NewState()).Analyze() != nil {
		t.Error("plain physiological grew an analysis phase")
	}
}

// TestCheckerVerifyEndStatefulRedoTest: a verifyEnd audit of a sound
// page-LSN crash state passes, with one redo test serving both the
// redo_set replay and the end-state check. (The name is from when a
// page-LSN test updated its table on admit and a reused test reported a
// false recovery-diverged.)
func TestCheckerVerifyEndStatefulRedoTest(t *testing.T) {
	db := hotPageCrashed(t, func(s *model.State) DB { return NewPhysiological(s) }, 200)
	sv := Survivors(db)
	checker, err := core.NewChecker(sv.Log, db.RecoveryBase())
	if err != nil {
		t.Fatal(err)
	}
	rep := checker.Check(sv.State, sv.Log, sv.Checkpoint, sv.Redo, sv.Analyze, true)
	if len(rep.RedoSet) == 0 {
		t.Fatal("fixture redoes nothing; the defect needs at least one redone record")
	}
	if !rep.OK {
		t.Errorf("verifyEnd audit of a sound crash state failed: %s", rep.Summary())
	}
}

// TestRecoveryAllocsScaleLinearly guards the analysis phase against
// creeping back into the per-record loop: doubling the unrecovered tail
// may at most double recovery's allocation count (2.5x with slack), where
// a per-record rebuild of the unrecovered set measured 2.75–3.03x (bytes
// quadruple; map growth keeps the count below that). Counts only, no
// clocks.
func TestRecoveryAllocsScaleLinearly(t *testing.T) {
	const n = 4096
	for _, f := range []struct {
		name string
		mk   func(*model.State) DB
	}{
		{"physiological+dpt", func(s *model.State) DB { return NewPhysiologicalDPT(s) }},
		{"logical", func(s *model.State) DB { return NewLogical(s) }},
	} {
		small, large := hotPageCrashed(t, f.mk, n), hotPageCrashed(t, f.mk, 2*n)
		for _, loop := range []struct {
			name string
			run  func(DB)
		}{
			{"Recover", func(db DB) {
				if _, err := Recover(db); err != nil {
					t.Fatal(err)
				}
			}},
			{"DecideRedo", func(db DB) {
				core.DecideRedo(db.StableState(), db.StableLog(), db.Checkpointed(), db.RedoTest(), db.Analyze())
			}},
		} {
			a := testing.AllocsPerRun(2, func() { loop.run(small) })
			b := testing.AllocsPerRun(2, func() { loop.run(large) })
			if b > 2.5*a {
				t.Errorf("%s %s: %.0f allocs at n=%d, %.0f at 2n (%.2fx, want ≤ 2.5x)", f.name, loop.name, a, n, b, b/a)
			} else {
				t.Logf("%s %s: %.0f allocs at n=%d, %.0f at 2n (%.2fx)", f.name, loop.name, a, n, b, b/a)
			}
		}
	}
}

// hotPageUninstalled executes n hot-page operations under plain
// physiological logging with nothing installed, forces the log and
// crashes, so recovery replays every record.
func hotPageUninstalled(t *testing.T, n int) DB {
	t.Helper()
	ps := workload.Pages(32)
	db := NewPhysiological(initialState(ps))
	for _, op := range workload.HotPage(n, ps, 7) {
		if err := db.Exec(op); err != nil {
			t.Fatal(err)
		}
	}
	db.FlushLog()
	db.Crash()
	return db
}

// coldRecover is one sequential recovery of a hotPageUninstalled DB of
// n records. The log's dense view was built as it was appended, so no
// recovery interns anything and every call costs what the first did.
func coldRecover(t *testing.T, db DB, n int) {
	if res, err := Recover(db); err != nil || len(res.Replayed) != n {
		t.Fatalf("Recover: %v (fixture must replay every record)", err)
	}
}

// TestColdRecoverAllocsPerRecord gates the per-record allocation count
// of cold sequential recovery on the hot-page shape with nothing
// installed before the crash, so every record is replayed: (allocs at
// 2n − allocs at n) / n must stay ≤ 1.5. Positional apply measures ~1.0
// (the digest's one string per written value); replay through a
// per-record read map and a fresh write map measured ~5.0. Counts only,
// no clocks.
func TestColdRecoverAllocsPerRecord(t *testing.T) {
	const n = 4096
	cold := func(n int) float64 {
		db := hotPageUninstalled(t, n)
		return testing.AllocsPerRun(2, func() { coldRecover(t, db, n) })
	}
	a, b := cold(n), cold(2*n)
	slope := (b - a) / n
	if slope > 1.5 {
		t.Errorf("cold Recover: %.0f allocs at n=%d, %.0f at 2n: %.2f allocs/record, want ≤ 1.5", a, n, b, slope)
	} else {
		t.Logf("cold Recover: %.0f allocs at n=%d, %.0f at 2n: %.2f allocs/record", a, n, b, slope)
	}
}

// TestColdRecoverBytesPerRecord is the byte-based sibling: an
// allocation count cannot see a few large allocations, which is what a
// presized per-recovery op-id set, a copied and re-indexed stable log,
// or a view rebuilt at restart is. One cold Recover of n = 8192 records
// may allocate at most 41 B/record (TotalAlloc delta); it measures ~33
// with the view carried by the log, ~106 with the view built at
// restart, ~222 with Result's sets also filled per record and the
// prefix copied.
func TestColdRecoverBytesPerRecord(t *testing.T) {
	const n = 8192
	db := hotPageUninstalled(t, n)
	coldRecover(t, db, n) // first call pays one-time costs outside the measurement
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	coldRecover(t, db, n)
	runtime.ReadMemStats(&after)
	perRecord := float64(after.TotalAlloc-before.TotalAlloc) / n
	if perRecord > 41 {
		t.Errorf("cold Recover allocated %.1f B/record over %d records, want ≤ 41", perRecord, n)
	} else {
		t.Logf("cold Recover allocated %.1f B/record over %d records", perRecord, n)
	}
}
