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

// Survivors is one crash, the input of the recovery procedure of
// Figure 6: the stable state, stable log and checkpoint a crash left
// (Section 4), plus the method's redo test and analysis bound to them.
// State is a fresh projection that the engine it is handed to consumes
// (Recover and RecoverDense write the recovered state back into it), so
// a caller that runs two engines takes two values; the other fields are
// only read.
type Survivors struct {
	State      *model.State
	Log        *Log
	Checkpoint graph.Set[model.OpID]
	Redo       RedoTest
	Analyze    AnalyzeFunc
}

// Prefix narrows the survivors to the log records with LSN ≤ lsn, a
// shard's certified cut (DESIGN.md §15); the other fields ride along.
// Prefix(0) keeps no record, so recovery from it replays nothing.
func (s Survivors) Prefix(lsn LSN) Survivors {
	s.Log = s.Log.Prefix(lsn)
	return s
}

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

// runAnalysis is the analysis phase Scan starts with: it runs
// sv.Analyze once inside a PhaseAnalysis span and returns its value and
// the time it took. A nil Analyze yields a nil analysis, no span, and a
// zero phase observation, so rollups carry a uniform schema.
func runAnalysis(rec *obs.Recorder, sv Survivors) (Analysis, time.Duration) {
	if sv.Analyze == nil {
		rec.ObserveDuration("phase."+string(obs.PhaseAnalysis), 0)
		return nil, 0
	}
	span := rec.StartSpan(obs.PhaseAnalysis)
	analysis := sv.Analyze(sv.State, sv.Log, sv.Checkpoint)
	return analysis, span.End()
}

// Step is the one thing the recovery engines differ in: what to do with
// a record the redo test admitted. i is the record's index in
// sv.Log.Records(). Returning stop ends the scan cleanly before r is redone
// (a simulated crash point); an error ends it as a failure to replay r.
type Step func(i int, r *Record) (stop bool, err error)

// Scan is the loop of Figure 6, written once; every recovery engine is
// an instantiation of it (DESIGN.md §1.1.1). Over the survivors sv it
// runs the analysis phase, visits the unrecovered records — the logged
// operations outside the checkpoint — in log order, which is consistent
// with the conflict order, applies the redo test to each, and hands
// every admitted record to step. It returns how many records the redo test examined and
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
func Scan(rec *obs.Recorder, sv Survivors, replays bool, step Step) (examined int, done bool, err error) {
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
	analysis, analysisTotal := runAnalysis(rec, sv)
	var evbuf [3]obs.Event
	done = true
	for i, r := range sv.Log.Records() {
		if sv.Checkpoint.Has(r.Op.ID()) {
			cCheckpointed.Add(1)
			if sinking {
				rec.Emit(verdict(obs.EvSkip, r, "checkpointed"))
			}
			continue
		}
		examined++
		cExamined.Add(1)
		if !sv.Redo(r, analysis) {
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
// operation in place. It consumes sv.State, which it mutates and returns
// in the Result. The checker and the differential tests run it; the
// shipped path is RecoverDense.
//
// Correctness is the Recovery Corollary (Corollary 4): if the installed
// set operations(log) − redo_set induces a prefix of the installation
// graph that explains the pre-recovery state, Recover terminates with the
// state determined by the conflict graph.
//
// Run on a fresh value, it is also the hypothetical the Recovery
// Invariant (Section 4.5) quantifies over — "if, at any time, the
// recovery procedure would choose to redo some set of operations…" —
// and the Result's RedoSet is that choice: the supervisor's progress
// measure audits a live system this way without disturbing it.
func Recover(sv Survivors) (*Result, error) {
	res := &Result{State: sv.State, log: sv.Log}
	var err error
	res.Examined, _, err = Scan(nil, sv, true, func(_ int, r *Record) (bool, error) {
		res.Replayed = append(res.Replayed, r.Op.ID())
		_, err := sv.State.Apply(r.Op)
		return false, err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
