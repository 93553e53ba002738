package shard

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"redotheory/internal/core"
	"redotheory/internal/method"
	"redotheory/internal/model"
	"redotheory/internal/obs"
)

// RecoverOptions configures sharded recovery.
type RecoverOptions struct {
	// Parallel replays each shard with the partitioned parallel engine
	// (method.RecoverParallelFrom) instead of sequential dense replay.
	Parallel bool
	// Workers is the per-shard worker-pool size when Parallel is set
	// (0 = GOMAXPROCS shared among the shards, which recover
	// concurrently: at least one each).
	Workers int
	// Recorder receives the recovery trace: a root span for the whole
	// procedure, a cut span, and one replay span per shard. Falls back
	// to the DB's attached recorder when nil.
	Recorder *obs.Recorder
	// CheckInvariant additionally audits each shard's projection with
	// the recovery-invariant checker over its cut prefix — the
	// per-shard-projection explainability invariant (DESIGN.md §15).
	CheckInvariant bool
}

// ShardOutcome is one shard's recovery under the certified cut.
type ShardOutcome struct {
	// Shard is the shard index.
	Shard int
	// CutLSN is the shard's certified-cut frontier.
	CutLSN core.LSN
	// StableRecords is the shard's surviving stable log length;
	// CutRecords of those lie within the cut (the rest were dropped for
	// cut atomicity).
	StableRecords int
	CutRecords    int
	// Result is the shard's recovery outcome over its cut prefix.
	Result *core.Result
	// Invariant is the per-shard-projection audit (nil unless
	// RecoverOptions.CheckInvariant).
	Invariant *core.Report
}

// Outcome is a full sharded recovery: the certified cut it recovered
// from and the per-shard outcomes under it.
type Outcome struct {
	// Cut is the certified cut recovery replayed up to.
	Cut *Cut
	// State is the union of the recovered shard states — the system
	// state, since every variable is owned by exactly one shard.
	State *model.State
	// Shards holds the per-shard outcomes, indexed by shard.
	Shards []ShardOutcome
	// DroppedRecords counts stable log records beyond the cut across
	// all shards: durable work recovery had to abandon to keep
	// cross-shard transactions atomic.
	DroppedRecords int
}

// InvariantOK reports whether every audited shard projection satisfies
// the recovery invariant (vacuously true when no audit ran).
func (o *Outcome) InvariantOK() bool {
	for i := range o.Shards {
		if rep := o.Shards[i].Invariant; rep != nil && !rep.OK {
			return false
		}
	}
	return true
}

// Recover runs distributed redo recovery after Crash: compute the
// certified cut from the surviving stable logs, then recover every
// shard from its cut prefix with the existing single-log engines, in
// parallel across shards. Per-shard recovery from the cut prefix is
// sound because the certification gate kept every installed effect and
// every checkpoint bound inside the certified cut, which the crash-time
// maximal cut dominates (see the package comment); so each shard's
// prefix, stable state, and checkpoint set are exactly a single-log
// crash configuration, and the paper's procedure applies unchanged.
func (d *DB) Recover(opts RecoverOptions) (*Outcome, error) {
	rec := opts.Recorder
	if rec == nil {
		rec = d.rec
	}
	n := d.router.n
	root := rec.StartRootSpan(obs.PhaseShardRecover, fmt.Sprintf("sharded recovery ×%d", n))
	defer root.End()

	// Phase 1: the certified cut, from the logs alone.
	cs := rec.StartSpan(obs.PhaseCut)
	in, err := d.cutInput()
	if err != nil {
		cs.End()
		return nil, err
	}
	cut, err := ComputeCut(in)
	cs.End()
	if err != nil {
		return nil, err
	}
	rec.Add(obs.MShardCutRetreats, int64(cut.Retreats))
	rec.Add(obs.MShardCutDropped, int64(len(cut.Dropped)))
	rec.SetGauge(obs.GShardCutLag, int64(cut.Lag(in)))

	out := &Outcome{Cut: cut, Shards: make([]ShardOutcome, n)}

	// Phase 2: per-shard recovery from the cut prefixes, concurrently.
	rootID := root.SpanID()
	workers := opts.Workers
	if workers <= 0 {
		workers = max(1, runtime.GOMAXPROCS(0)/n)
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			db := d.shards[i]
			sv := method.Survivors(db)
			prefix := sv.Prefix(cut.Frontier[i])
			so := &out.Shards[i]
			so.Shard = i
			so.CutLSN = cut.Frontier[i]
			so.StableRecords = sv.Log.Len()
			so.CutRecords = prefix.Log.Len()

			var span *obs.Span
			if rec.Sinking() {
				span = rec.StartSpanWith(obs.PhaseShardReplay, rootID, obs.SpanInfo{
					Comp: fmt.Sprintf("s%d", i),
					Size: prefix.Log.Len(),
				})
			}
			defer span.End()

			var err error
			if opts.Parallel {
				var par *method.ParallelResult
				if par, err = method.RecoverParallelFrom(prefix, method.ParallelOptions{Workers: workers, Recorder: db.Recorder()}); err == nil {
					so.Result = par.Result
				}
			} else {
				so.Result, err = core.RecoverDense(nil, prefix)
			}
			if err != nil {
				errs[i] = fmt.Errorf("shard %d: %w", i, err)
				return
			}

			if opts.CheckInvariant {
				// A second value: recovery consumed the first one's state.
				av := method.Survivors(db).Prefix(cut.Frontier[i])
				checker, err := core.NewChecker(av.Log, db.RecoveryBase())
				if err != nil {
					errs[i] = fmt.Errorf("shard %d: building checker: %w", i, err)
					return
				}
				so.Invariant = checker.Check(av.State, av.Log, av.Checkpoint, av.Redo, av.Analyze, false)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Union the shard states and count the abandoned suffix records.
	out.State = model.NewState()
	for i := range out.Shards {
		for _, x := range out.Shards[i].Result.State.Vars() {
			out.State.Set(x, out.Shards[i].Result.State.Get(x))
		}
		out.DroppedRecords += out.Shards[i].StableRecords - out.Shards[i].CutRecords
	}
	rec.Add(obs.MShardCutRecords, int64(out.DroppedRecords))
	return out, nil
}

// MergedOracle rebuilds the system state at the cut by brute force, as
// if the shards had shared one log: union the per-shard recovery bases,
// then apply every stable record within the cut in global (LSN, shard)
// order. Any interleave preserving each shard's order is equivalent —
// variables are shard-owned, so every conflict is intra-shard — and
// this canonical one is deterministic. The differential oracle compares
// sharded recovery against it: per-shard recovery under the certified
// cut must land on exactly this state.
func (d *DB) MergedOracle(cut *Cut) (*model.State, error) {
	state := model.NewState()
	for _, db := range d.shards {
		base := db.RecoveryBase()
		for _, x := range base.Vars() {
			state.Set(x, base.Get(x))
		}
	}
	type entry struct {
		rec   *core.Record
		shard int
	}
	var merged []entry
	for i, db := range d.shards {
		for _, r := range db.StableLog().Records() {
			if r.LSN <= cut.Frontier[i] {
				merged = append(merged, entry{r, i})
			}
		}
	}
	sort.Slice(merged, func(a, b int) bool {
		if merged[a].rec.LSN != merged[b].rec.LSN {
			return merged[a].rec.LSN < merged[b].rec.LSN
		}
		return merged[a].shard < merged[b].shard
	})
	for _, e := range merged {
		if _, err := state.Apply(e.rec.Op); err != nil {
			return nil, fmt.Errorf("shard: merged oracle applying %s (shard %d, LSN %d): %w",
				e.rec.Op, e.shard, e.rec.LSN, err)
		}
	}
	return state, nil
}
