package method

import (
	"fmt"
	"runtime"
	"sync"

	"redotheory/internal/core"
	"redotheory/internal/dense"
	"redotheory/internal/model"
	"redotheory/internal/obs"
	"redotheory/internal/partition"
)

// ParallelOptions configures RecoverParallel.
type ParallelOptions struct {
	// Workers is the worker-pool size. 0 (or negative) means
	// runtime.GOMAXPROCS(0); 1 degenerates to sequential replay through
	// the same code path.
	Workers int
	// Recorder, when non-nil, receives phase spans (decide, partition,
	// replay, merge), per-record redo verdicts, the partition width
	// histogram, and worker-side replay counters. Falls back to the DB's
	// attached recorder when nil.
	Recorder *obs.Recorder
}

// ParallelResult is a core recovery Result plus the plan that produced
// it.
type ParallelResult struct {
	*core.Result
	// Plan summarizes the partition (components, critical path).
	Plan partition.Stats
	// Workers is the pool size actually used.
	Workers int
}

// RecoverParallel runs redo recovery with partitioned, concurrent
// replay and produces the same outcome as sequential Recover (Figure 6):
//
//  1. Decision phase (sequential): scan the log exactly as Recover does,
//     running the method's analysis function and redo test, but applying
//     nothing. Sound because every method's redo test is state-blind —
//     it decides from LSNs and the log, never from the state replay is
//     rebuilding (core.DecideRedo documents the contract). The log's
//     dense view is built beside it (core.DecideAndView).
//  2. Partition: fuse the admitted records into interference components
//     (internal/partition). Components write disjoint variables and read
//     no variable another component writes, so they commute; inside a
//     component, LSN order is a topological order of the restricted
//     conflict graph. This is the installation-graph concurrency argument
//     of Theorem 3 extended with the write-read edges recomputation
//     needs (see partition's package comment and DESIGN.md §8).
//  3. Replay (parallel): each component goes whole to one worker of a
//     pool, and every worker sweeps the admitted records once in log
//     order, replaying the ones it owns, on the dense representation
//     (internal/dense): records are interned views, the state is a flat
//     value arena, and because components write disjoint variable ids,
//     each worker stores its writes straight into its disjoint arena
//     slots — the per-component overlay of the original engine
//     degenerated into a slice of the arena, with one positional value
//     buffer (core.ReplayBuf) as the only per-worker scratch. The merge
//     phase then re-marks the presence bitmap and installs the written
//     ids into the map-backed state.
//
// Like Recover via the DB surface, it does not modify the crashed DB:
// it works on the fresh projections StableState, StableLog, and a fresh
// RedoTest return.
func RecoverParallel(db DB, opts ParallelOptions) (*ParallelResult, error) {
	return RecoverParallelLog(db, db.StableLog(), opts)
}

// RecoverParallelLog is RecoverParallel over an explicit stable-log
// prefix instead of db.StableLog(). Sharded recovery (internal/shard)
// replays each shard from its certified-cut prefix, which may be
// strictly shorter than the shard's surviving log; every method's redo
// test and checkpoint set remain sound on a prefix because both are
// bounded by installed work, and the certification gate keeps installed
// work inside the cut. The log must be a prefix of (or equal to)
// db.StableLog().
func RecoverParallelLog(db DB, log *core.Log, opts ParallelOptions) (*ParallelResult, error) {
	rec := opts.Recorder
	if rec == nil {
		rec = db.Recorder()
	}
	state := db.StableState()
	// Root span: a top-level parallel recovery begins its own trace; the
	// decide/partition/replay/merge spans nest under it, and each replay
	// worker's span nests under replay.
	root := rec.StartRootSpan(obs.PhaseRecover, "parallel recovery")
	defer root.End()
	decision, lv := core.DecideAndView(rec, state, log, db.Checkpointed(), db.RedoTest(), db.Analyze())

	ps := rec.StartSpan(obs.PhasePartition)
	plan := partition.FromViews(lv.Views, decision.ReplayIdx, lv.In.Len())
	ps.End()
	rec.Inc(obs.MPartitionPlans)
	for _, c := range plan.Components {
		rec.Observe(obs.MPartitionWidth, int64(len(c.Idx)))
	}
	rec.SetGauge(obs.GPartitionLargest, int64(plan.MaxComponentLen()))

	if err := replayPlan(rec, state, lv, plan, opts.Workers); err != nil {
		return nil, err
	}
	return &ParallelResult{Result: decision.Result(state), Plan: plan.Stats(), Workers: poolSize(opts.Workers, len(plan.Components))}, nil
}

// poolSize bounds the worker count by the available parallelism and the
// number of components.
func poolSize(workers, components int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if components < 1 {
		components = 1
	}
	if workers > components {
		workers = components
	}
	return workers
}

// replayError carries a replay failure with the LSN it occurred at, so
// concurrent failures resolve to the deterministic (smallest-LSN) one.
type replayError struct {
	lsn core.LSN
	err error
}

// replayPlan applies the plan's components to the state on the dense
// representation. The component is the unit of ownership, not of
// iteration: each component goes whole to one worker (assign), and
// every worker then walks the admitted records once, in log order,
// replaying the ones it owns — so records inside a component still
// replay in LSN order, and the pool makes one pass over the log's
// memory instead of one jump per component (DESIGN.md §8, "schedule").
// Workers replay against a shared dense projection of the base state:
// reads of stable variables are concurrent-safe (never written during
// this phase), and because components write disjoint variable ids,
// each worker stores its writes directly into its own disjoint arena
// slots — the overlay of the map-based engine, collapsed into the arena
// itself. The presence bitmap shares words across ids, so workers skip
// it (StoreRaw); the sequential merge phase re-marks the written ids
// and installs them into the map-backed state.
func replayPlan(rec *obs.Recorder, state *model.State, lv *core.LogView, plan *partition.DensePlan, workers int) error {
	if plan.Ops == 0 {
		// Record zero-duration replay/merge phases so every observed
		// recovery reports the full phase breakdown, admitted work or not.
		rec.ObserveDuration("phase."+string(obs.PhaseReplay), 0)
		rec.ObserveDuration("phase."+string(obs.PhaseMerge), 0)
		return nil
	}
	workers = poolSize(workers, len(plan.Components))
	owner, shares := assign(plan, workers)

	rs := rec.StartSpan(obs.PhaseReplay)
	// Workers parent their spans under the replay span by explicit id —
	// the ambient stack belongs to the coordinator, which keeps replay
	// open (and on top) for the whole pool run.
	replayID := rs.SpanID()
	ds := dense.FromState(lv.In, state)
	// One failure slot per worker: workers need no channel.
	failures := make([]replayError, workers)
	var wg sync.WaitGroup
	for w := range shares {
		wg.Add(1)
		go func(w int32) {
			defer wg.Done()
			sh := shares[w]
			// One span per worker, annotated with the records and write
			// width it owns so stragglers are attributable.
			var ws *obs.Span
			if rec.Sinking() {
				ws = rec.StartSpanWith(obs.PhaseComponent, replayID, obs.SpanInfo{
					Comp:   fmt.Sprintf("w%d", w+1),
					Worker: int(w) + 1,
					Size:   sh.records,
					Writes: sh.writes,
				})
			}
			defer ws.End()
			var buf core.ReplayBuf
			for i, ci := range plan.Of {
				if owner[ci] != w {
					continue
				}
				// A worker stops at its first failure: its records
				// replay in LSN order, so that is its smallest-LSN one.
				if failed, err := lv.Replay(ds, plan.Idx[i:i+1], &buf); err != nil {
					failures[w] = replayError{lsn: failed.LSN, err: err}
					return
				}
			}
			rec.Add(obs.MReplayComponents, int64(sh.components))
			rec.Add(obs.MReplayRecords, int64(sh.records))
		}(int32(w))
	}
	wg.Wait()
	rs.End()

	var first replayError
	for _, f := range failures {
		if f.err != nil && (first.err == nil || f.lsn < first.lsn) {
			first = f
		}
	}
	if first.err != nil {
		return first.err
	}

	// Merge: components write disjoint ids, so any order works; use
	// component order for determinism anyway.
	ms := rec.StartSpan(obs.PhaseMerge)
	for _, c := range plan.Components {
		core.InstallWrites(ds, state, c.Writes)
	}
	ms.End()
	return nil
}

// share is what one pool worker owns: whole components, and the records
// and written ids in them.
type share struct{ components, records, writes int }

// assign gives each component, in plan order, to the worker owning the
// fewest records so far (the lowest-numbered on a tie). It returns the
// owner of every component and each worker's share; the linear scan for
// the least-loaded worker costs components × workers, and poolSize
// bounds workers by the parallelism asked for and by components.
func assign(plan *partition.DensePlan, workers int) ([]int32, []share) {
	owner := make([]int32, len(plan.Components))
	shares := make([]share, workers)
	for ci, c := range plan.Components {
		w := 0
		for k := 1; k < workers; k++ {
			if shares[k].records < shares[w].records {
				w = k
			}
		}
		owner[ci] = int32(w)
		shares[w].components++
		shares[w].records += len(c.Idx)
		shares[w].writes += len(c.Writes)
	}
	return owner, shares
}
