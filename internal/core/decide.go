package core

import (
	"fmt"
	"sort"

	"redotheory/internal/graph"
	"redotheory/internal/model"
	"redotheory/internal/obs"
)

// RedoDecision is the outcome of running the recovery procedure's
// decision phase alone: the analysis ran once and the log was scanned in
// LSN order with the redo test exactly as in Recover, but no operation
// was applied. It is the input to the parallel replay engine, which
// replays the admitted records partitioned into independent components.
type RedoDecision struct {
	// ReplayIdx lists each admitted record's index in log.Records(), in
	// LSN order — the order sequential Recover would have applied them;
	// the dense replay engine uses it to address the log view's record
	// slice without a lookup.
	ReplayIdx []int
	// Examined counts log records examined (loop iterations).
	Examined int
	// log is the log the decision scanned.
	log *Log
}

// DecideRedo runs the decision phase of the recovery procedure of
// Figure 6 without applying any operation: the same analysis phase, the
// same scan, the same redo test invocations, against the given state.
//
// Separating decision from application is what makes partitioned replay
// possible, and it is faithful to sequential Recover exactly when the
// redo test and analysis function are state-blind: they may read the
// log, the analysis value, and any state captured at construction time
// (the page-LSN tables every Section 6 method uses), but not the state
// being rebuilt — in Recover that state mutates as replay progresses,
// here it does not. Every method in internal/method satisfies this: the
// paper's redo tests decide from LSN comparisons, not from recovering
// values. The property tests in internal/method assert the resulting
// equivalence against sequential Recover for every method.
func DecideRedo(state *model.State, log *Log, checkpoint graph.Set[model.OpID], redo RedoTest, analyze AnalyzeFunc) *RedoDecision {
	return DecideRedoEach(nil, state, log, checkpoint, redo, analyze, nil)
}

// DecideRedoEach is DecideRedo with telemetry and a hook. rec gets a
// "decide" span over Scan's account (nothing is timed as replay: the
// step only notes the index); a nil recorder disables it. each serves
// an engine that consumes the decision while it is being made
// (pipelined recovery, DESIGN.md §8): when non-nil, it runs on the
// scanning goroutine for every admitted record i just before i joins
// ReplayIdx, so ReplayIdx then holds exactly the admitted records
// before i. Returning true ends the scan there, leaving i out; the
// decision is then a prefix.
func DecideRedoEach(rec *obs.Recorder, state *model.State, log *Log, checkpoint graph.Set[model.OpID], redo RedoTest, analyze AnalyzeFunc, each func(d *RedoDecision, i int) (stop bool)) *RedoDecision {
	d := &RedoDecision{
		// Presized for the worst case (every record admitted): append
		// growth on a long replay list is pure reallocation overhead,
		// and a consumer may hold sub-slices of it while it grows.
		ReplayIdx: make([]int, 0, log.Len()),
		log:       log,
	}
	span := rec.StartSpan(obs.PhaseDecide)
	d.Examined, _, _ = Scan(rec, state, log, checkpoint, redo, analyze, false, func(i int, _ *Record) (bool, error) {
		if each != nil && each(d, i) {
			return true, nil
		}
		d.ReplayIdx = append(d.ReplayIdx, i)
		return false, nil
	})
	span.End()
	return d
}

// DecideAndView is the front half of the instant-restart engine
// (serve.New), which plans every admitted record before it replays any:
// DecideRedoEach with no hook, and the log's dense view from
// DefaultViews, built concurrently. The two passes are independent — the
// decision reads records and the redo test, the view build reads records
// and interns their variables — so they overlap, and the caller gets
// both once the slower finishes. The view build records only its cache hit
// or miss on rec, never a span, so the decide span tree is unchanged.
func DecideAndView(rec *obs.Recorder, state *model.State, log *Log, checkpoint graph.Set[model.OpID], redo RedoTest, analyze AnalyzeFunc) (*RedoDecision, *LogView) {
	view := make(chan *LogView, 1)
	go func() { view <- DefaultViews.ViewOf(log, rec) }()
	d := DecideRedoEach(rec, state, log, checkpoint, redo, analyze, nil)
	return d, <-view
}

// Result materializes the decision as a recovery Result over the given
// final state. The examined count is the decision's own; Replayed lists
// the admitted operations in LSN order —
// the order sequential Recover reports — regardless of the schedule
// that actually applied them, which is exactly the linearization
// DESIGN.md §8 licenses: any conflict-respecting application order is
// indistinguishable from the sequential one. Both the partitioned
// engine and the instant-restart serve engine report through this.
func (d *RedoDecision) Result(state *model.State) *Result {
	res := &Result{State: state, Examined: d.Examined, log: d.log}
	if len(d.ReplayIdx) > 0 {
		recs := d.log.Records()
		res.Replayed = make([]model.OpID, len(d.ReplayIdx))
		for i, idx := range d.ReplayIdx {
			res.Replayed[i] = recs[idx].Op.ID()
		}
	}
	return res
}

// SameOutcome reports whether two recovery results are equivalent: the
// same final state, the same redo set, the same replay order, and the
// same number of records examined. It is the oracle the parallel replay
// engine is audited against — RecoverParallel must be indistinguishable
// from sequential Recover — and returns a descriptive error naming the
// first divergence found.
func (r *Result) SameOutcome(o *Result) error {
	if r == nil || o == nil {
		return fmt.Errorf("core: comparing nil recovery results")
	}
	if !r.State.Equal(o.State) {
		return fmt.Errorf("core: recovered states differ on %v", r.State.Diff(o.State))
	}
	rRedo, oRedo := r.RedoSet(), o.RedoSet()
	if err := sameSet("redo", rRedo, oRedo); err != nil {
		return err
	}
	if err := sameSet("installed", r.installedGiven(rRedo), o.installedGiven(oRedo)); err != nil {
		return err
	}
	if len(r.Replayed) != len(o.Replayed) {
		return fmt.Errorf("core: replayed %d operations, other replayed %d", len(r.Replayed), len(o.Replayed))
	}
	for i := range r.Replayed {
		if r.Replayed[i] != o.Replayed[i] {
			return fmt.Errorf("core: replay order diverges at position %d: op %d vs op %d", i, r.Replayed[i], o.Replayed[i])
		}
	}
	if r.Examined != o.Examined {
		return fmt.Errorf("core: examined %d records, other examined %d", r.Examined, o.Examined)
	}
	return nil
}

// sameSet compares two op-id sets, naming a witness of the difference.
func sameSet(what string, a, b graph.Set[model.OpID]) error {
	if len(a) == len(b) {
		ok := true
		for id := range a {
			if !b.Has(id) {
				ok = false
				break
			}
		}
		if ok {
			return nil
		}
	}
	var onlyA, onlyB []model.OpID
	for id := range a {
		if !b.Has(id) {
			onlyA = append(onlyA, id)
		}
	}
	for id := range b {
		if !a.Has(id) {
			onlyB = append(onlyB, id)
		}
	}
	sort.Slice(onlyA, func(i, j int) bool { return onlyA[i] < onlyA[j] })
	sort.Slice(onlyB, func(i, j int) bool { return onlyB[i] < onlyB[j] })
	return fmt.Errorf("core: %s sets differ (only in first: %v, only in second: %v)", what, onlyA, onlyB)
}
