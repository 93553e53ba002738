package core

import (
	"fmt"
	"time"

	"redotheory/internal/dense"
	"redotheory/internal/graph"
	"redotheory/internal/model"
	"redotheory/internal/obs"
)

// RecoverDense is the redo recovery procedure of Figure 6 running on
// the dense replay representation: the same analysis phase, the same
// scan, the same redo-test invocations, and the same final state as
// Recover, but replay recomputes against an interned, slice-backed
// state instead of the map-backed one, through RecordView.Replay's
// positional value buffers. The map/string API is preserved at the
// edges: state is read up front, mutated only by the final write-back
// of replayed variables, and returned in the Result exactly as Recover
// would have left it.
//
// Faithfulness rests on the same contract DecideRedo documents: the
// redo test and analysis function are state-blind, so handing them the
// pre-replay state (which the dense path never mutates mid-scan) makes
// the same decisions sequential Recover makes, and deterministic
// operations replayed in the same order against the same read values
// write the same values. The differential tests in internal/method
// assert state-for-state equality against map-based Recover for every
// method and workload shape.
func RecoverDense(state *model.State, log *Log, checkpoint graph.Set[model.OpID], redo RedoTest, analyze AnalyzeFunc) (*Result, error) {
	return RecoverDenseObserved(nil, state, log, checkpoint, redo, analyze)
}

// RecoverDenseObserved is RecoverDense with telemetry. It emits the
// identical instrumentation schema to RecoverObserved — the umbrella
// "recover" span, one analysis span, per-record replay span events when
// a sink is attached, admit/skip verdict events, and per-recovery phase
// durations for analysis, replay, and scan — so metrics consumers
// cannot tell the representations apart. A nil recorder makes it
// exactly RecoverDense.
func RecoverDenseObserved(rec *obs.Recorder, state *model.State, log *Log, checkpoint graph.Set[model.OpID], redo RedoTest, analyze AnalyzeFunc) (*Result, error) {
	lv := DefaultViews.ViewOfObserved(log, rec)
	ds := dense.FromState(lv.In, state)
	// ds is private to this recovery and only its value slots are read
	// back (WriteBack), so the presence bits Replay skips are never
	// consulted.
	var buf ReplayBuf
	// touched collects the ids replay wrote (deduplicated via seen) for
	// the final write-back into the map-backed state.
	seen := make([]uint64, (lv.In.Len()+63)/64)
	touched := make([]uint32, 0, 16)

	res := &Result{
		State: state,
		log:   log,
		// Presized for the worst case (every record admitted): append
		// growth on a 512-record replay costs ~9 reallocations.
		Replayed: make([]model.OpID, 0, log.Len()),
	}
	rec.Touch(obs.MRedoExamined, obs.MRedoAdmitted, obs.MRedoSkipped)
	// Hot path: resolved counter handles, raw clock accumulation, and
	// sink-guarded event payloads — see RecoverObserved for the
	// rationale.
	obsOn := rec != nil
	cExamined := rec.CounterHandle(obs.MRedoExamined)
	cAdmitted := rec.CounterHandle(obs.MRedoAdmitted)
	cSkipped := rec.CounterHandle(obs.MRedoSkipped)
	cCheckpointed := rec.CounterHandle(obs.MRedoCheckpointed)
	cReplayed := rec.CounterHandle(obs.MReplayRecords)
	// Root span: a top-level sequential recovery begins its own trace;
	// one nested inside a supervised attempt joins the attempt's tree.
	span := rec.StartRootSpan(obs.PhaseRecover, "sequential dense recovery")
	var replayTotal time.Duration
	analysis, analysisTotal := RunAnalysis(rec, analyze, state, log, checkpoint)
	// Per-record micro events (verdicts plus the id-less replay span
	// pairs) are batched into one EmitBatch per record: the
	// emission lock and clock are paid once per record, which is what
	// keeps full tracing inside the redobench overhead tolerance.
	var evbuf [3]obs.Event
	for i, r := range log.Records() {
		sinking := rec.Sinking()
		ev := evbuf[:0]
		if checkpoint.Has(r.Op.ID()) {
			cCheckpointed.Add(1)
			if sinking {
				rec.Emit(obs.Event{Type: obs.EvSkip, LSN: int64(r.LSN), Op: r.Op.String(), Verdict: "checkpointed"})
			}
			continue
		}
		res.Examined++
		cExamined.Add(1)
		if redo(r, state, log, analysis) {
			res.Replayed = append(res.Replayed, r.Op.ID())
			cAdmitted.Add(1)
			if sinking {
				ev = append(ev, obs.Event{Type: obs.EvAdmit, LSN: int64(r.LSN), Op: r.Op.String(), Verdict: "admit"})
			}
			var t0 time.Time
			if obsOn {
				t0 = time.Now()
			}
			v := &lv.Views[i]
			err := v.Replay(ds, &buf)
			if obsOn {
				d := time.Since(t0)
				replayTotal += d
				if sinking {
					ev = append(ev,
						obs.Event{Type: obs.EvSpanBegin, Phase: obs.PhaseReplay},
						obs.Event{Type: obs.EvSpanEnd, Phase: obs.PhaseReplay, Dur: d})
				}
			}
			if err != nil {
				span.End()
				return nil, fmt.Errorf("core: replaying %s: %w", r.Op, err)
			}
			for _, id := range v.Writes {
				if seen[id>>6]&(1<<(id&63)) == 0 {
					seen[id>>6] |= 1 << (id & 63)
					touched = append(touched, id)
				}
			}
			cReplayed.Add(1)
		} else {
			cSkipped.Add(1)
			if sinking {
				ev = append(ev, obs.Event{Type: obs.EvSkip, LSN: int64(r.LSN), Op: r.Op.String(), Verdict: "redo-test-false"})
			}
		}
		if len(ev) > 0 {
			rec.EmitBatch(ev)
		}
	}
	// Write-back: install the replayed variables into the map-backed
	// state, which until here was only read.
	ds.WriteBack(state, touched)
	if rec != nil {
		total := span.End()
		// One observation per recovery for each nested phase (zero when
		// the phase did no work), so rollups carry a uniform schema.
		rec.ObserveDuration("phase."+string(obs.PhaseReplay), replayTotal)
		rec.ObserveDuration("phase."+string(obs.PhaseScan), total-analysisTotal-replayTotal)
	}
	return res, nil
}
