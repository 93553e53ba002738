package method

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"redotheory/internal/core"
	"redotheory/internal/dense"
	"redotheory/internal/model"
	"redotheory/internal/obs"
	"redotheory/internal/partition"
)

// ParallelOptions configures RecoverParallel.
type ParallelOptions struct {
	// Workers is the size of the pool that replays the admitted records
	// the pipeline had not replayed when the decision ended. 0 (or
	// negative) means runtime.GOMAXPROCS(0). A pool of one would sweep
	// the tail in log order, which is what the pipeline's replayer
	// already does, so with 1 the replayer finishes the log and nothing
	// is planned.
	Workers int
	// Recorder, when non-nil, receives phase spans (decide, replay,
	// partition, merge), per-record redo verdicts, the tail's partition
	// width histogram, and replay counters. RecoverParallel falls back
	// to the DB's attached recorder when nil; RecoverParallelFrom takes
	// it as given.
	Recorder *obs.Recorder
}

// ParallelResult is a core recovery Result plus how the schedule split
// the admitted records between its two stages.
type ParallelResult struct {
	*core.Result
	// Pipelined counts the admitted records the pipeline replayed, in
	// log order, before the handoff.
	Pipelined int
	// Tail summarizes the plan the pool replayed: the admitted records
	// after the first Pipelined. How the records split between the two
	// stages depends on timing; the outcome does not.
	Tail partition.Stats
	// Workers is the pool size actually used for the tail.
	Workers int

	views    *core.LogView
	admitted []int
}

// Plan summarizes the interference partition of every admitted record
// (components, critical path): the shape of the log's parallelism,
// independent of where the handoff fell. It is planned on each call.
func (r *ParallelResult) Plan() partition.Stats {
	return partition.FromViews(r.views.Views, r.admitted, r.views.In.Len()).Stats()
}

// RecoverParallel runs redo recovery as a two-stage pipeline with a
// pooled tail and produces the same outcome as sequential Recover
// (Figure 6); DESIGN.md §8 gives the schedule and why it is sound:
//
//  1. Decide (the caller's goroutine): core.DecideRedoEach, publishing
//     each decided chunk's admitted records to stage 2.
//  2. Replay (one goroutine): replay the published records in log
//     order, sequential Recover's order, one chunk behind the decision.
//  3. Handoff: when the scan ends, plan the admitted records the
//     replayer has not reached into interference components
//     (internal/partition), stop it at the next record boundary, and
//     let a pool replay the rest, each component whole on one worker;
//     then merge every written variable into the map-backed state.
//
// Light replay keeps pace with the decision and leaves the pool a chunk
// or so; heavy replay falls behind, and the pool takes most of the log.
// Like Recover, it does not modify the crashed DB: it is
// RecoverParallelFrom over a fresh Survivors value.
func RecoverParallel(db DB, opts ParallelOptions) (*ParallelResult, error) {
	if opts.Recorder == nil {
		opts.Recorder = db.Recorder()
	}
	return RecoverParallelFrom(Survivors(db), opts)
}

// RecoverParallelFrom is RecoverParallel's pipeline over a survivors
// value, which it consumes. Sharded recovery (internal/shard) hands it
// a shard's certified-cut prefix, sv.Prefix(cut): every method's redo
// test and checkpoint set remain sound on a prefix because both are
// bounded by installed work, and the certification gate keeps installed
// work inside the cut.
func RecoverParallelFrom(sv core.Survivors, opts ParallelOptions) (*ParallelResult, error) {
	rec, state, log := opts.Recorder, sv.State, sv.Log
	// Root span: a top-level parallel recovery begins its own trace; the
	// decide/partition/replay/merge spans nest under it, the pipeline's
	// replay span by explicit parent, and each pool worker's span nests
	// under the pool's replay span.
	root := rec.StartRootSpan(obs.PhaseRecover, "parallel recovery")
	defer root.End()

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	lv := core.NewLogView(log)
	p := startPipeline(rec, root.SpanID(), state, lv)
	defer p.stop()
	decision := core.DecideRedoEach(rec, sv, p.admit)
	from := p.handoff(decision.ReplayIdx, workers == 1)

	// The tail is planned from where the replayer was when the decision
	// ended while it keeps going; the pool takes the plan's records from
	// wherever it stopped. A component restricted to a suffix of the
	// plan still writes nothing another reads.
	ps := rec.StartSpan(obs.PhasePartition)
	plan := partition.FromViews(lv.Views, decision.ReplayIdx[from:], lv.In.Len())
	ps.End()
	rec.Inc(obs.MPartitionPlans)
	for _, c := range plan.Components {
		rec.Observe(obs.MPartitionWidth, int64(len(c.Idx)))
	}
	rec.SetGauge(obs.GPartitionLargest, int64(plan.MaxComponentLen()))
	p.stop()
	r := p.r
	if err := r.fail.err; err != nil {
		return nil, err
	}
	tail, workers, err := replayPlan(rec, r.ds, lv, plan, r.replayed-from, workers)
	if err != nil {
		return nil, err
	}

	// Merge: the pipeline's writes and the components' are installed
	// once each; components write disjoint ids, so any order works.
	ms := rec.StartSpan(obs.PhaseMerge)
	for _, c := range plan.Components {
		for _, id := range c.Writes {
			r.wrote(id)
		}
	}
	core.InstallWrites(r.ds, state, r.touched)
	ms.End()
	return &ParallelResult{
		Result:    decision.Result(state),
		Pipelined: r.replayed,
		Tail:      tail,
		Workers:   workers,
		views:     lv,
		admitted:  decision.ReplayIdx,
	}, nil
}

// chunkLen is how many records the decision runs ahead of replay
// between publications: about a thirty-second of the log, so even a
// short log overlaps its stages, at least 32 so a chunk amortizes its
// hand-over, and at most 4096 so replay starts soon on a long log.
func chunkLen(records int) int { return min(max(records/32, 32), 4096) }

// forcedHandoff, when non-negative, makes the pipeline publish exactly
// that many chunks (fewer if the log has fewer) and replay all of them
// before the pool takes the rest, so tests can put the handoff at every
// chunk boundary. The default, -1, publishes every chunk and stops the
// replayer at the first record boundary after the tail is planned.
var forcedHandoff = -1

// pipeline is stage 1's side of RecoverParallel's schedule, owned by
// the caller's goroutine: what has been published to the replayer. A
// published batch is a run of admitted view indexes, in log order.
type pipeline struct {
	chunk int
	// next is the first record of the chunk being decided; published
	// counts the admitted records handed over so far, in batches.
	next, published, batches int
	out                      chan []int
	closed                   bool // out is closed
	r                        *replayer
}

// replayer is stage 2's side, owned by the replayer goroutine: it owns
// ds, seen and touched until done is closed, and replayed from then on;
// meanwhile it reports a lower bound of replayed in progress.
type replayer struct {
	rec      *obs.Recorder
	parent   uint64
	state    *model.State
	progress atomic.Int64
	stop     atomic.Bool
	done     chan struct{}
	fail     failures

	ds       *dense.State
	replayed int
	seen     []uint64
	touched  []uint32
}

// startPipeline starts the replayer over the log's view.
func startPipeline(rec *obs.Recorder, parent uint64, state *model.State, lv *core.LogView) *pipeline {
	records := len(lv.Views)
	chunk := chunkLen(records)
	// Room for every chunk: publishing never waits for replay, so a slow
	// replay never slows the decision.
	out := make(chan []int, records/chunk+2)
	r := &replayer{rec: rec, parent: parent, state: state, done: make(chan struct{})}
	r.fail.init()
	go r.run(lv, out)
	return &pipeline{chunk: chunk, out: out, r: r}
}

// admit is the decision hook: on the first admitted record of a new
// chunk it publishes the admitted records before it. It ends the scan
// once replay has failed.
func (p *pipeline) admit(d *core.RedoDecision, i int) bool {
	if i >= p.next {
		p.publish(d.ReplayIdx)
		p.next = (i/p.chunk + 1) * p.chunk
	}
	return p.r.fail.failed()
}

// publish hands the admitted records not yet published to the replayer.
func (p *pipeline) publish(admitted []int) {
	if len(admitted) == p.published || (forcedHandoff >= 0 && p.batches >= forcedHandoff) {
		return
	}
	b := admitted[p.published:]
	p.published = len(admitted)
	p.batches++
	select {
	case p.out <- b:
	case <-p.r.done: // the replayer failed; nothing will read the batch
	}
}

// handoff ends stage 1 once the scan has: it publishes the last chunk
// and returns a lower bound of the replayer's position in admitted,
// from which the caller plans the tail. With drain, or under
// forcedHandoff, it first waits for the replayer to finish what it was
// given, and the bound is exact.
func (p *pipeline) handoff(admitted []int, drain bool) int {
	p.publish(admitted)
	close(p.out)
	p.closed = true
	if drain || forcedHandoff >= 0 {
		<-p.r.done
	}
	return int(p.r.progress.Load())
}

// stop stops the replayer at its next record boundary and waits for
// it; its replayed count is then final. RecoverParallelFrom also defers
// it, so a decision that panics (a redo test asserting an invariant)
// does not leave the replayer waiting for a batch.
func (p *pipeline) stop() {
	if !p.closed {
		close(p.out)
		p.closed = true
	}
	p.r.stop.Store(true)
	<-p.r.done
}

// run is stage 2: it projects the stable state onto the view's ids
// while the decision starts, then replays each batch's records in log
// order, until the batches run out, pipeline.stop stops it, or a record
// fails.
func (r *replayer) run(lv *core.LogView, in <-chan []int) {
	defer close(r.done)
	r.ds = dense.FromState(lv.In, r.state)
	r.seen = make([]uint64, (lv.In.Len()+63)/64)
	// The span opens with the first batch, so a replayer handed nothing
	// (a handoff forced before the first chunk) shows none.
	var span *obs.Span
	defer func() { span.End() }()
	var buf core.ReplayBuf
	replayed := 0
	defer func() { r.replayed = replayed }()
batches:
	for b := range in {
		if span == nil {
			span = r.rec.StartSpanWith(obs.PhaseReplay, r.parent, obs.SpanInfo{Comp: "pipeline"})
		}
		for k, vi := range b {
			if r.stop.Load() {
				break batches
			}
			if failed, err := lv.Replay(r.ds, b[k:k+1], &buf); err != nil {
				r.fail.record(failed.LSN, err)
				return
			}
			for _, id := range lv.Views[vi].Writes() {
				r.wrote(id)
			}
			if replayed++; replayed%64 == 0 {
				r.progress.Store(int64(replayed))
			}
		}
		r.progress.Store(int64(replayed))
	}
	r.rec.Add(obs.MReplayRecords, int64(replayed))
}

// wrote adds id to the ids the merge installs, once.
func (r *replayer) wrote(id uint32) {
	if r.seen[id>>6]&(1<<(id&63)) == 0 {
		r.seen[id>>6] |= 1 << (id & 63)
		r.touched = append(r.touched, id)
	}
}

// failures resolves concurrent replay failures to the one sequential
// replay hits: the smallest LSN. Every replay loop walks its records in
// log order and stops at a record past the smallest failing LSN so far,
// so one failure stops the others without hiding an earlier one.
type failures struct {
	lsn atomic.Int64
	mu  sync.Mutex
	err error
}

func (f *failures) init() { f.lsn.Store(math.MaxInt64) }

// record files a failure at lsn.
func (f *failures) record(lsn core.LSN, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if int64(lsn) < f.lsn.Load() {
		f.lsn.Store(int64(lsn))
		f.err = err
	}
}

// failed reports whether any replay has failed.
func (f *failures) failed() bool { return f.lsn.Load() != math.MaxInt64 }

// past reports whether lsn follows a failure, so replaying it is moot.
func (f *failures) past(lsn core.LSN) bool { return int64(lsn) > f.lsn.Load() }

// replayPlan replays the plan's records from position from on into ds
// over a pool of workers, and returns the shape of what it replayed and
// the pool size. The component is the unit of ownership, not of
// iteration: each component with records left goes whole to one worker
// (assign), and every worker then walks those records once, in log
// order, replaying the ones it owns — so records inside a component
// still replay in LSN order, and the pool makes one pass over the log's
// memory instead of one jump per component (DESIGN.md §8, "schedule").
// Reads of variables no component writes are concurrent-safe (nothing
// writes them during this phase), and because components write disjoint
// variable ids, each worker stores its writes directly into its own
// disjoint arena slots. The presence bitmap shares words across ids, so
// workers skip it (StoreRaw); the caller's merge re-marks the written
// ids. With nothing left it opens no span and records a zero-duration
// replay phase, so every observed recovery reports the full breakdown.
func replayPlan(rec *obs.Recorder, ds *dense.State, lv *core.LogView, plan *partition.Plan, from, workers int) (partition.Stats, int, error) {
	idx, of := plan.Idx[from:], plan.Of[from:]
	left := make([]int, len(plan.Components))
	tail := partition.Stats{Ops: len(idx)}
	for _, ci := range of {
		if left[ci]++; left[ci] == 1 {
			tail.Components++
		}
		tail.Largest = max(tail.Largest, left[ci])
	}
	workers = min(workers, max(tail.Components, 1))
	if tail.Ops == 0 {
		rec.ObserveDuration("phase."+string(obs.PhaseReplay), 0)
		return tail, workers, nil
	}
	owner, shares := assign(plan, left, workers)

	rs := rec.StartSpan(obs.PhaseReplay)
	// Workers parent their spans under the replay span by explicit id —
	// the ambient stack belongs to the coordinator, which keeps replay
	// open (and on top) for the whole pool run.
	replayID := rs.SpanID()
	var fail failures
	fail.init()
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
			for i, ci := range of {
				if owner[ci] != w {
					continue
				}
				if fail.past(lv.Views[idx[i]].Rec.LSN) {
					return
				}
				if failed, err := lv.Replay(ds, idx[i:i+1], &buf); err != nil {
					fail.record(failed.LSN, err)
					return
				}
			}
			rec.Add(obs.MReplayComponents, int64(sh.components))
			rec.Add(obs.MReplayRecords, int64(sh.records))
		}(int32(w))
	}
	wg.Wait()
	rs.End()
	return tail, workers, fail.err
}

// share is what one pool worker owns: whole components, and the records
// left in them and the ids they write.
type share struct{ components, records, writes int }

// assign gives each component with records left, in plan order, to the
// worker owning the fewest records so far (the lowest-numbered on a
// tie). It returns the owner of every component and each worker's
// share; the linear scan for the least-loaded worker costs components ×
// workers, and poolSize bounds workers by the parallelism asked for and
// by components.
func assign(plan *partition.Plan, left []int, workers int) ([]int32, []share) {
	owner := make([]int32, len(plan.Components))
	shares := make([]share, workers)
	for ci, c := range plan.Components {
		if left[ci] == 0 {
			continue
		}
		w := 0
		for k := 1; k < workers; k++ {
			if shares[k].records < shares[w].records {
				w = k
			}
		}
		owner[ci] = int32(w)
		shares[w].components++
		shares[w].records += left[ci]
		shares[w].writes += len(c.Writes)
	}
	return owner, shares
}
