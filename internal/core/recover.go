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
// record carry, of which the LSN is what the page-LSN tests compare. S and
// L are fixed when the analysis runs, so whatever a test needs from them
// the analysis (or the test's construction) captures: a RedoTest is a
// pure predicate — reentrant, order-free, and shareable across goroutines.
type RedoTest func(r *Record, analysis Analysis) bool

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

// runAnalysis is the analysis phase Scan starts with: it runs analyze
// once inside a PhaseAnalysis span and returns its value and the time it
// took. A nil analyze yields a nil analysis, no span, and a zero phase
// observation, so rollups carry a uniform schema.
func runAnalysis(rec *obs.Recorder, analyze AnalyzeFunc, state *model.State, log *Log, checkpoint graph.Set[model.OpID]) (Analysis, time.Duration) {
	if analyze == nil {
		rec.ObserveDuration("phase."+string(obs.PhaseAnalysis), 0)
		return nil, 0
	}
	span := rec.StartSpan(obs.PhaseAnalysis)
	analysis := analyze(state, log, checkpoint)
	return analysis, span.End()
}

// Step is the one thing the recovery engines differ in: what to do with
// a record the redo test admitted. i is the record's index in
// log.Records(). Returning stop ends the scan cleanly before r is redone
// (a simulated crash point); an error ends it as a failure to replay r.
type Step func(i int, r *Record) (stop bool, err error)

// Scan is the loop of Figure 6, written once; every recovery engine is
// an instantiation of it (DESIGN.md §1.1.1). It runs the analysis phase,
// visits the unrecovered records — the logged operations outside the
// checkpoint — in log order, which is consistent with the conflict
// order, applies the redo test to each, and hands every admitted record
// to step. It returns how many records the redo test examined and
// whether the scan reached the end of the log.
//
// Scan owns the telemetry every engine reports: the redo.* counters, the
// admit/skip verdict events, and a phase.scan observation (the loop
// minus analysis and replay). replays says that step redoes the record
// (a decide-only step passes false): Scan then also times it, counts it
// in replay.records, observes phase.replay, and emits the per-record
// replay span pair — batched with the verdict into one EmitBatch, so the
// emission lock and clock are paid once per record, which keeps full
// tracing inside the redobench overhead tolerance. A nil recorder costs
// a nil check per counter and nothing else.
func Scan(rec *obs.Recorder, state *model.State, log *Log, checkpoint graph.Set[model.OpID], redo RedoTest, analyze AnalyzeFunc, replays bool, step Step) (examined int, done bool, err error) {
	rec.Touch(obs.MRedoExamined, obs.MRedoAdmitted, obs.MRedoSkipped)
	// Hot path: resolved counter handles (one atomic add each), raw
	// clock reads accumulated locally, and event payloads built only
	// when a sink is attached; histograms are observed once, at the end.
	timed, sinking := rec != nil && replays, rec.Sinking()
	cExamined := rec.CounterHandle(obs.MRedoExamined)
	cAdmitted := rec.CounterHandle(obs.MRedoAdmitted)
	cSkipped := rec.CounterHandle(obs.MRedoSkipped)
	cCheckpointed := rec.CounterHandle(obs.MRedoCheckpointed)
	cReplayed := rec.CounterHandle(obs.MReplayRecords)
	var start, t0 time.Time
	if rec != nil {
		start = time.Now()
	}
	var replayTotal time.Duration
	analysis, analysisTotal := runAnalysis(rec, analyze, state, log, checkpoint)
	var evbuf [3]obs.Event
	done = true
	for i, r := range log.Records() {
		if checkpoint.Has(r.Op.ID()) {
			cCheckpointed.Add(1)
			if sinking {
				rec.Emit(verdict(obs.EvSkip, r, "checkpointed"))
			}
			continue
		}
		examined++
		cExamined.Add(1)
		if !redo(r, analysis) {
			cSkipped.Add(1)
			if sinking {
				rec.Emit(verdict(obs.EvSkip, r, "redo-test-false"))
			}
			continue
		}
		cAdmitted.Add(1)
		ev := evbuf[:0]
		if sinking {
			ev = append(ev, verdict(obs.EvAdmit, r, "admit"))
		}
		if timed {
			t0 = time.Now()
		}
		stop, serr := step(i, r)
		if stop || serr != nil {
			done = false
			if serr != nil {
				err = fmt.Errorf("core: replaying %s: %w", r.Op, serr)
			}
			rec.EmitBatch(ev)
			break
		}
		if replays {
			cReplayed.Add(1)
		}
		if timed {
			d := time.Since(t0)
			replayTotal += d
			if sinking {
				ev = append(ev,
					obs.Event{Type: obs.EvSpanBegin, Phase: obs.PhaseReplay},
					obs.Event{Type: obs.EvSpanEnd, Phase: obs.PhaseReplay, Dur: d})
			}
		}
		if sinking {
			rec.EmitBatch(ev)
		}
	}
	if rec != nil {
		// One observation per recovery for each nested phase (zero when
		// the phase did no work), so rollups carry a uniform schema.
		if replays {
			rec.ObserveDuration("phase."+string(obs.PhaseReplay), replayTotal)
		}
		rec.ObserveDuration("phase."+string(obs.PhaseScan), time.Since(start)-analysisTotal-replayTotal)
	}
	return examined, done, err
}

// verdict builds the event reporting the scan's decision on r.
func verdict(t obs.EventType, r *Record, v string) obs.Event {
	return obs.Event{Type: t, LSN: int64(r.LSN), Op: r.Op.String(), Verdict: v}
}

// Recover is the redo recovery procedure of Figure 6 on the map-backed
// state: the reference instantiation of Scan, whose step applies the
// operation in place. The state is mutated and also returned in the
// Result. The checker and the differential tests run it; the shipped
// path is RecoverDense.
//
// Correctness is the Recovery Corollary (Corollary 4): if the installed
// set operations(log) − redo_set induces a prefix of the installation
// graph that explains the pre-recovery state, Recover terminates with the
// state determined by the conflict graph.
func Recover(state *model.State, log *Log, checkpoint graph.Set[model.OpID], redo RedoTest, analyze AnalyzeFunc) (*Result, error) {
	res := &Result{State: state, log: log}
	var err error
	res.Examined, _, err = Scan(nil, state, log, checkpoint, redo, analyze, true, func(_ int, r *Record) (bool, error) {
		res.Replayed = append(res.Replayed, r.Op.ID())
		_, err := state.Apply(r.Op)
		return false, err
	})
	if err != nil {
		return nil, err
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
