package method

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"redotheory/internal/core"
	"redotheory/internal/model"
	"redotheory/internal/obs"
	"redotheory/internal/workload"
)

// TestRecoverParallelObservedCounters: the instrumented parallel engine
// must account for every record exactly once — examined splits into
// admitted plus skipped, replay counts what was admitted, the partition
// width histogram sums to the records the pool was planned for — and
// every phase of the pipeline must have a recorded duration. With the
// handoff forced before the first chunk the pool plans and replays every
// admitted record; unforced, the pipeline may replay any prefix first,
// and the pool's components are those of the plan it still had work in.
// Workers increment shared counters concurrently, so running this under
// -race is the telemetry thread-safety proof.
func TestRecoverParallelObservedCounters(t *testing.T) {
	pages := workload.Pages(6)
	for _, f := range parallelFactories {
		f := f
		t.Run(f.name, func(t *testing.T) {
			ops, err := workload.ForMethod(f.name, 24, pages, 7)
			if err != nil {
				t.Fatal(err)
			}
			db := crashedDB(t, f.mk, ops, workload.InitialState(pages), len(ops), 700)

			for _, handoff := range []int{0, -1} {
				rec := obs.New()
				restore := ForceHandoff(handoff)
				_, err := RecoverParallel(db, ParallelOptions{Workers: 8, Recorder: rec})
				restore()
				if err != nil {
					t.Fatal(err)
				}

				examined := rec.Snapshot().Counter(obs.MRedoExamined)
				admitted := rec.Snapshot().Counter(obs.MRedoAdmitted)
				skipped := rec.Snapshot().Counter(obs.MRedoSkipped)
				if examined != admitted+skipped {
					t.Errorf("handoff=%d: examined=%d != admitted=%d + skipped=%d", handoff, examined, admitted, skipped)
				}
				if got := rec.Snapshot().Counter(obs.MReplayRecords); got != admitted {
					t.Errorf("handoff=%d: replay.records=%d, want admitted=%d", handoff, got, admitted)
				}
				if got := rec.Snapshot().Counter(obs.MPartitionPlans); got != 1 {
					t.Errorf("handoff=%d: partition.plans=%d, want 1", handoff, got)
				}

				snap := rec.Snapshot()
				wh := snap.Samples[obs.MPartitionWidth]
				comps := rec.Snapshot().Counter(obs.MReplayComponents)
				if handoff == 0 && (wh.Sum != admitted || int64(wh.Count) != comps) {
					t.Errorf("handoff=0: width histogram of %d components summing to %d records, want replay.components=%d and admitted=%d",
						wh.Count, wh.Sum, comps, admitted)
				}
				if wh.Sum > admitted || int64(wh.Count) < comps {
					t.Errorf("handoff=%d: width histogram of %d components summing to %d records, want at most admitted=%d and at least replay.components=%d",
						handoff, wh.Count, wh.Sum, admitted, comps)
				}
				for _, phase := range []obs.Phase{
					obs.PhaseScan, obs.PhaseAnalysis, obs.PhaseDecide,
					obs.PhasePartition, obs.PhaseReplay, obs.PhaseMerge,
				} {
					if h := snap.Duration("phase." + string(phase)); h.Count == 0 {
						t.Errorf("handoff=%d: phase %q has no recorded duration", handoff, phase)
					}
				}
			}
		})
	}
}

// TestRecoverParallelSpanNesting: the event stream's phase spans must
// form a well-nested causal tree — a root recover span opening a fresh
// trace, decide (with its per-record analysis spans) closing before
// partition opens, partition before replay, replay before merge, and
// every component span parented under the replay span with worker and
// size attribution. The pipeline's replay span runs beside decide and
// partition, so only its parent and count are checked: none when the
// handoff is forced before the first chunk, one when it is forced after
// the first chunk of a longer log, and at most one unforced.
func TestRecoverParallelSpanNesting(t *testing.T) {
	pages := workload.Pages(4)
	for _, tc := range []struct {
		ops, handoff, pipelines int // pipelines -1: at most one
	}{{20, 0, 0}, {20, -1, -1}, {3 * chunkLen(100), 1, 1}, {3 * chunkLen(100), -1, -1}} {
		ops := workload.SinglePage(tc.ops, pages, 3, false)
		db := crashedDB(t, func(s *model.State) DB { return NewPhysiological(s) }, ops, workload.InitialState(pages), len(ops), 42)

		rec := obs.New()
		sink := &obs.MemorySink{}
		rec.SetSink(sink)
		restore := ForceHandoff(tc.handoff)
		_, err := RecoverParallel(db, ParallelOptions{Workers: 4, Recorder: rec})
		restore()
		if err != nil {
			t.Fatal(err)
		}

		events := sink.Events()
		if err := obs.CheckSpanNesting(events); err != nil {
			t.Fatalf("ops=%d: span nesting: %v", tc.ops, err)
		}
		if len(events) == 0 || events[0].Type != obs.EvTraceBegin {
			t.Fatalf("ops=%d: stream does not open with a trace-begin event", tc.ops)
		}
		// Coordinator phases in pipeline order; component spans are
		// emitted by concurrent workers, so only their parentage is
		// deterministic.
		order := make([]obs.Phase, 0, 5)
		var rootID, replayID uint64
		components, pipelines := 0, 0
		for _, e := range events {
			if e.Type != obs.EvSpanBegin {
				continue
			}
			switch {
			case e.Phase == obs.PhaseAnalysis:
			case e.Phase == obs.PhaseComponent:
				components++
				if e.Parent == 0 || e.Parent != replayID {
					t.Errorf("ops=%d: component span %d parented under %d, want replay span %d", tc.ops, e.Span, e.Parent, replayID)
				}
				if e.Worker < 1 || e.Size < 1 || e.Comp == "" {
					t.Errorf("ops=%d: component span missing attribution: %s", tc.ops, e)
				}
			case e.Phase == obs.PhaseReplay && e.Comp == "pipeline":
				pipelines++
				if e.Parent == 0 || e.Parent != rootID {
					t.Errorf("ops=%d: pipeline span parented under %d, want root %d", tc.ops, e.Parent, rootID)
				}
			default:
				order = append(order, e.Phase)
				switch e.Phase {
				case obs.PhaseRecover:
					rootID = e.Span
				case obs.PhaseReplay:
					replayID = e.Span
					if e.Parent != rootID {
						t.Errorf("ops=%d: replay span parented under %d, want root %d", tc.ops, e.Parent, rootID)
					}
				default:
					if e.Parent != rootID {
						t.Errorf("ops=%d: %s span parented under %d, want root %d", tc.ops, e.Phase, e.Parent, rootID)
					}
				}
			}
		}
		if tc.pipelines < 0 {
			if pipelines > 1 {
				t.Errorf("ops=%d: %d pipeline spans, want at most one", tc.ops, pipelines)
			}
			continue // the pool may have found nothing left
		}
		if components == 0 {
			t.Errorf("ops=%d: no component spans emitted", tc.ops)
		}
		if pipelines != tc.pipelines {
			t.Errorf("ops=%d: %d pipeline spans, want %d", tc.ops, pipelines, tc.pipelines)
		}
		want := []obs.Phase{obs.PhaseRecover, obs.PhaseDecide, obs.PhasePartition, obs.PhaseReplay, obs.PhaseMerge}
		if len(order) != len(want) {
			t.Fatalf("ops=%d: coordinator span order %v, want %v", tc.ops, order, want)
		}
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("ops=%d: coordinator span order %v, want %v", tc.ops, order, want)
			}
		}
	}
}

// TestRecoverObservedSequential: the instrumented Figure 6 procedure
// must agree with the plain one and leave a complete account — the
// umbrella recover span covers scan+analysis+replay, and the verdict
// events tell the same story as the counters.
func TestRecoverObservedSequential(t *testing.T) {
	ps := pages(3)
	db := NewPhysiological(initialState(ps))
	for i := 1; i <= 9; i++ {
		if err := db.Exec(singlePageOp(model.OpID(i), ps[(i-1)%3])); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			db.FlushOne()
		}
	}
	db.FlushLog()
	db.Crash()

	plain, err := Recover(db)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	sink := &obs.MemorySink{}
	rec.SetSink(sink)
	observed, err := RecoverObserved(db, rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := observed.SameOutcome(plain); err != nil {
		t.Fatalf("observed recovery diverged from plain: %v", err)
	}

	admits, skips := 0, 0
	for _, e := range sink.Events() {
		switch e.Type {
		case obs.EvAdmit:
			admits++
		case obs.EvSkip:
			skips++
		}
	}
	if int64(admits) != rec.Snapshot().Counter(obs.MRedoAdmitted) {
		t.Errorf("%d admit events, counter says %d", admits, rec.Snapshot().Counter(obs.MRedoAdmitted))
	}
	if int64(skips) != rec.Snapshot().Counter(obs.MRedoSkipped)+rec.Snapshot().Counter(obs.MRedoCheckpointed) {
		t.Errorf("%d skip events, counters say %d skipped + %d checkpointed",
			skips, rec.Snapshot().Counter(obs.MRedoSkipped), rec.Snapshot().Counter(obs.MRedoCheckpointed))
	}
	if err := obs.CheckSpanNesting(sink.Events()); err != nil {
		t.Fatalf("span nesting: %v", err)
	}

	snap := rec.Snapshot()
	total := snap.Duration("phase." + string(obs.PhaseRecover)).Sum
	parts := snap.Duration("phase."+string(obs.PhaseScan)).Sum +
		snap.Duration("phase."+string(obs.PhaseAnalysis)).Sum +
		snap.Duration("phase."+string(obs.PhaseReplay)).Sum
	if total < parts {
		t.Errorf("recover span %v shorter than its parts %v", time.Duration(total), time.Duration(parts))
	}
}

// checkScanAccount asserts the counter schema core.Scan gives every
// engine: each examined record is admitted or skipped, and nothing is
// replayed that was not admitted.
func checkScanAccount(t *testing.T, engine string, rec *obs.Recorder) {
	t.Helper()
	examined, admitted, skipped := rec.Snapshot().Counter(obs.MRedoExamined), rec.Snapshot().Counter(obs.MRedoAdmitted), rec.Snapshot().Counter(obs.MRedoSkipped)
	if examined != admitted+skipped {
		t.Errorf("%s: examined=%d != admitted=%d + skipped=%d", engine, examined, admitted, skipped)
	}
	if replayed := rec.Snapshot().Counter(obs.MReplayRecords); replayed > admitted {
		t.Errorf("%s: replay.records=%d exceeds admitted=%d", engine, replayed, admitted)
	}
}

// TestScanUniformSchema: the engines are instantiations of one scan, so
// over the same survivors the sequential, decide-only and installing
// recoveries must tell the same story — the identical admit/skip verdict
// sequence, and counters that obey the same account.
func TestScanUniformSchema(t *testing.T) {
	pages := workload.Pages(5)
	for _, f := range parallelFactories {
		f := f
		t.Run(f.name, func(t *testing.T) {
			ops, err := workload.ForMethod(f.name, 24, pages, 11)
			if err != nil {
				t.Fatal(err)
			}
			db := crashedDB(t, f.mk, ops, workload.InitialState(pages), len(ops), 1100)

			type engine struct {
				name string
				run  func(*obs.Recorder) error
			}
			engines := []engine{
				{"sequential", func(rec *obs.Recorder) error { _, err := RecoverObserved(db, rec); return err }},
				{"decide-only", func(rec *obs.Recorder) error {
					core.DecideRedoEach(rec, Survivors(db), nil)
					return nil
				}},
			}
			if db.(ProgressCheckpointer).InstallsDuringRecovery() {
				// Last: it installs into the crashed DB's stable state.
				engines = append(engines, engine{"installing", func(rec *obs.Recorder) error {
					db.SetRecorder(rec)
					_, _, err := recoverInstalling(db.(Installer), -1)
					return err
				}})
			}
			var want []string
			for _, e := range engines {
				rec := obs.New()
				sink := &obs.MemorySink{}
				rec.SetSink(sink)
				if err := e.run(rec); err != nil {
					t.Fatalf("%s: %v", e.name, err)
				}
				checkScanAccount(t, e.name, rec)
				var verdicts []string
				for _, ev := range sink.Events() {
					if ev.Type == obs.EvAdmit || ev.Type == obs.EvSkip {
						verdicts = append(verdicts, fmt.Sprintf("%d:%s", ev.LSN, ev.Verdict))
					}
				}
				if want == nil {
					want = verdicts
				} else if !reflect.DeepEqual(verdicts, want) {
					t.Errorf("%s verdicts %v, sequential gave %v", e.name, verdicts, want)
				}
			}
			if len(want) == 0 {
				t.Fatal("fixture produced no verdicts")
			}
		})
	}
}

// TestRecoverDegradedObserved: detections must surface as counted
// events, and the conservative path must account for its full replay.
func TestRecoverDegradedObserved(t *testing.T) {
	ps := pages(3)
	db := NewPhysiological(initialState(ps))
	rec := obs.New()
	sink := &obs.MemorySink{}
	rec.SetSink(sink)
	db.SetRecorder(rec)
	for i := 1; i <= 6; i++ {
		if err := db.Exec(singlePageOp(model.OpID(i), ps[(i-1)%3])); err != nil {
			t.Fatal(err)
		}
		db.FlushOne()
	}
	db.FlushLog()
	db.Crash()
	db.Store().CorruptPage(ps[0])

	res, err := RecoverDegraded(db, RunToCompletion())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatalf("expected the conservative path, got %+v", res)
	}
	if got := rec.Snapshot().Counter(obs.MDetections); got != int64(len(res.Detections)) {
		t.Errorf("detections counter %d, result lists %d", got, len(res.Detections))
	}
	if got := rec.Snapshot().Counter(obs.MDegradedRuns); got != 1 {
		t.Errorf("degraded.replays = %d, want 1", got)
	}
	// The conservative replay is the scan kernel with an always-true redo
	// test: every surviving record examined, admitted, and replayed.
	checkScanAccount(t, "degraded", rec)
	if n := int64(db.StableLog().Len()); rec.Snapshot().Counter(obs.MRedoAdmitted) != n || rec.Snapshot().Counter(obs.MReplayRecords) != n {
		t.Errorf("degraded replay admitted %d and replayed %d of %d records",
			rec.Snapshot().Counter(obs.MRedoAdmitted), rec.Snapshot().Counter(obs.MReplayRecords), n)
	}
	detEvents := 0
	for _, e := range sink.Events() {
		if e.Type == obs.EvDetection {
			detEvents++
		}
	}
	if detEvents != len(res.Detections) {
		t.Errorf("%d detection events, result lists %d", detEvents, len(res.Detections))
	}
}
