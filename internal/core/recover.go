package core

import (
	"fmt"
	"time"

	"redotheory/internal/graph"
	"redotheory/internal/model"
	"redotheory/internal/obs"
)

// Analysis is the opaque value produced by a recovery method's analysis
// phase (Section 4.3). It might be a log position, a dirty-page table, or
// nothing at all.
type Analysis interface{}

// AnalyzeFunc is a method's analysis phase: it maps a state, a log, and
// the checkpoint to an analysis. The recovery procedure runs it exactly
// once, before the first record is examined, and hands its value
// unchanged to every redo test. The unrecovered set at that moment is
// operations(log) − checkpoint, which the arguments determine.
type AnalyzeFunc func(state *model.State, log *Log, checkpoint graph.Set[model.OpID]) Analysis

// RedoTest decides whether a logged operation should be replayed
// (Section 4.4). It is the heart of the recovery procedure. The paper's
// redo(O, S, L, A) names the operation; the test here is handed the log
// record the scan is standing on — the operation r.Op plus the "additional
// information about this operation and its invocation" Section 4.1 lets a
// record carry, of which the LSN is what the page-LSN tests compare.
type RedoTest func(r *Record, state *model.State, log *Log, analysis Analysis) bool

// Result reports what an execution of the recovery procedure did.
type Result struct {
	// State is the rebuilt system state at termination.
	State *model.State
	// Replayed lists the operations for which the redo test returned
	// true (the paper's redo_set), in replay (log) order.
	Replayed []model.OpID
	// Examined counts loop iterations (log records examined).
	Examined int
	// log is the log the procedure scanned; Installed is relative to it.
	log *Log
}

// RedoSet returns the paper's redo_set as a set: the operations in
// Replayed. It is built per call.
func (r *Result) RedoSet() graph.Set[model.OpID] {
	return graph.NewSet(r.Replayed...)
}

// Installed returns operations(log) − redo_set over the scanned log: the
// operations recovery considered installed. It is built per call.
func (r *Result) Installed() graph.Set[model.OpID] {
	return r.installedGiven(r.RedoSet())
}

// installedGiven is Installed for a caller already holding RedoSet().
func (r *Result) installedGiven(redo graph.Set[model.OpID]) graph.Set[model.OpID] {
	out := make(graph.Set[model.OpID], r.log.Len()-len(redo))
	for _, rec := range r.log.Records() {
		if !redo.Has(rec.Op.ID()) {
			out.Add(rec.Op.ID())
		}
	}
	return out
}

// RunAnalysis is the analysis phase every recovery loop starts with: it
// runs analyze once inside a PhaseAnalysis span and returns its value and
// the time it took. A nil analyze yields a nil analysis, no span, and a
// zero phase observation, so rollups carry a uniform schema.
func RunAnalysis(rec *obs.Recorder, analyze AnalyzeFunc, state *model.State, log *Log, checkpoint graph.Set[model.OpID]) (Analysis, time.Duration) {
	if analyze == nil {
		rec.ObserveDuration("phase."+string(obs.PhaseAnalysis), 0)
		return nil, 0
	}
	span := rec.StartSpan(obs.PhaseAnalysis)
	analysis := analyze(state, log, checkpoint)
	return analysis, span.End()
}

// Recover is the redo recovery procedure of Figure 6. It runs the
// analysis phase, then scans the unrecovered operations — the logged
// operations outside the checkpoint — in log order; for each it applies
// the redo test and replays the operation if the test says yes. The
// state is mutated in place and also returned in the Result.
//
// Correctness is the Recovery Corollary (Corollary 4): if the installed
// set operations(log) − redo_set induces a prefix of the installation
// graph that explains the pre-recovery state, Recover terminates with the
// state determined by the conflict graph.
func Recover(state *model.State, log *Log, checkpoint graph.Set[model.OpID], redo RedoTest, analyze AnalyzeFunc) (*Result, error) {
	return RecoverObserved(nil, state, log, checkpoint, redo, analyze)
}

// RecoverObserved is Recover with telemetry: an umbrella "recover" span
// over the whole procedure, one analysis span, per-record replay span
// events (when a sink is attached), per-recovery phase durations for
// analysis, replay, and scan (the loop minus the time inside analysis and
// replay), and admit/skip events with the redo-test verdict. A nil
// recorder makes it exactly Recover.
func RecoverObserved(rec *obs.Recorder, state *model.State, log *Log, checkpoint graph.Set[model.OpID], redo RedoTest, analyze AnalyzeFunc) (*Result, error) {
	res := &Result{State: state, log: log}
	rec.Touch(obs.MRedoExamined, obs.MRedoAdmitted, obs.MRedoSkipped)
	// The loop below is the recovery hot path, so instrumentation is kept
	// to resolved counter handles (one atomic add each), raw clock reads
	// accumulated locally, and Emit calls that are a single atomic load
	// when no sink is attached; histogram observations happen once per
	// recovery, after the loop.
	obsOn := rec != nil
	cExamined := rec.CounterHandle(obs.MRedoExamined)
	cAdmitted := rec.CounterHandle(obs.MRedoAdmitted)
	cSkipped := rec.CounterHandle(obs.MRedoSkipped)
	cCheckpointed := rec.CounterHandle(obs.MRedoCheckpointed)
	cReplayed := rec.CounterHandle(obs.MReplayRecords)
	span := rec.StartRootSpan(obs.PhaseRecover, "sequential recovery")
	var replayTotal time.Duration
	analysis, analysisTotal := RunAnalysis(rec, analyze, state, log, checkpoint)
	for _, r := range log.Records() {
		if checkpoint.Has(r.Op.ID()) {
			cCheckpointed.Add(1)
			if rec.Sinking() {
				rec.Emit(obs.Event{Type: obs.EvSkip, LSN: int64(r.LSN), Op: r.Op.String(), Verdict: "checkpointed"})
			}
			continue
		}
		// O is the minimal operation in unrecovered: records are visited
		// in LSN order, which is consistent with the conflict order.
		res.Examined++
		cExamined.Add(1)
		if redo(r, state, log, analysis) {
			res.Replayed = append(res.Replayed, r.Op.ID())
			cAdmitted.Add(1)
			if rec.Sinking() {
				rec.Emit(obs.Event{Type: obs.EvAdmit, LSN: int64(r.LSN), Op: r.Op.String(), Verdict: "admit"})
			}
			var t0 time.Time
			if obsOn {
				rec.Emit(obs.Event{Type: obs.EvSpanBegin, Phase: obs.PhaseReplay})
				t0 = time.Now()
			}
			_, err := state.Apply(r.Op)
			if obsOn {
				d := time.Since(t0)
				replayTotal += d
				rec.Emit(obs.Event{Type: obs.EvSpanEnd, Phase: obs.PhaseReplay, Dur: d})
			}
			if err != nil {
				span.End()
				return nil, fmt.Errorf("core: replaying %s: %w", r.Op, err)
			}
			cReplayed.Add(1)
		} else {
			cSkipped.Add(1)
			if rec.Sinking() {
				rec.Emit(obs.Event{Type: obs.EvSkip, LSN: int64(r.LSN), Op: r.Op.String(), Verdict: "redo-test-false"})
			}
		}
	}
	if rec != nil {
		total := span.End()
		// One observation per recovery for each nested phase (zero when the
		// phase did no work), so rollups carry a uniform schema.
		rec.ObserveDuration("phase."+string(obs.PhaseReplay), replayTotal)
		rec.ObserveDuration("phase."+string(obs.PhaseScan), total-analysisTotal-replayTotal)
	}
	return res, nil
}

// PredictRedoSet runs the recovery procedure against a clone of the state
// and returns the redo set it would choose, leaving the real state
// untouched. The Recovery Invariant (Section 4.5) quantifies over exactly
// this hypothetical: "if, at any time, the recovery procedure would
// choose to redo some set of operations…"; the supervisor's progress
// measure uses this to audit a live system without disturbing it.
func PredictRedoSet(state *model.State, log *Log, checkpoint graph.Set[model.OpID], redo RedoTest, analyze AnalyzeFunc) (graph.Set[model.OpID], error) {
	res, err := Recover(state.Clone(), log, checkpoint, redo, analyze)
	if err != nil {
		return nil, err
	}
	return res.RedoSet(), nil
}
