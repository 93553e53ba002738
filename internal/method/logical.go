package method

import (
	"redotheory/internal/core"
	"redotheory/internal/graph"
	"redotheory/internal/model"
	"redotheory/internal/storage"
)

// Logical implements Section 6.1, the System R pattern: logged operations
// are arbitrary state-to-state mappings (they may read and write any
// variables), the stable database does not change between checkpoints,
// and a checkpoint quiesces the system, writes the pending updates to a
// staging area, and then "swings a pointer" — an atomic transition that
// both installs every operation logged since the previous checkpoint
// (collapsing the two-node write graph into one node) and moves those
// operations out of redo_set by writing the checkpoint record. Recovery
// starts from the stable state of the last checkpoint and replays every
// later logged operation.
type Logical struct {
	*base
	shadow *storage.ShadowTable
}

// NewLogical returns a logical-recovery DB over the initial state.
func NewLogical(initial *model.State) *Logical {
	b := newBase(initial)
	return &Logical{base: b, shadow: storage.NewShadowTable(b.store)}
}

// Name returns "logical".
func (d *Logical) Name() string { return "logical" }

// Exec runs a logical operation: any read set, any write set. Updates
// stay in the cache — the stable state is immutable between checkpoints,
// so there is no steal and no per-page WAL coupling.
func (d *Logical) Exec(op *model.Op) error {
	ws, err := d.computeThrough(op)
	if err != nil {
		return err
	}
	rec := d.log.Append(op, RecordSize(op, ws))
	for j, x := range op.Writes() {
		d.cache.ApplyWrite(x, ws[j], rec.LSN)
	}
	d.noteExec()
	return nil
}

// FlushOne reports false: logical recovery never steals. Pages reach the
// stable state only through the checkpoint's atomic pointer swing.
func (d *Logical) FlushOne() bool { return false }

// Checkpoint quiesces and checkpoints in the System R pattern: force the
// log, write every dirty page to the staging area (the stable state is
// untouched — stageCheckpoint), then swing the pointer and append the
// checkpoint record (completeCheckpoint). Shadow paging is what makes the
// multi-page installation one atomic pointer update; a crash between the
// two phases discards the staging area and recovery restarts from the
// previous checkpoint.
func (d *Logical) Checkpoint() error {
	d.stageCheckpoint()
	return d.completeCheckpoint()
}

// stageCheckpoint performs the first checkpoint phase: quiesce, force the
// log, and write the pending updates to the staging area. The current
// stable state is not modified.
func (d *Logical) stageCheckpoint() {
	d.log.Flush()
	for _, id := range d.cache.DirtyPages() {
		d.shadow.StagePage(id, storage.Page{Data: d.cache.Read(id), LSN: d.cache.PageLSN(id)})
	}
}

// completeCheckpoint performs the second phase: the atomic pointer swing
// plus the checkpoint record, which together install every operation
// logged so far and remove it from redo_set in one step — the
// invariant-preserving atomicity of Section 6.1. If an injected media
// fault tears the swing, the checkpoint record is NOT written (the swing
// never committed), the error is returned, and the previous checkpoint
// remains the recovery base — exactly the System R abort path.
func (d *Logical) completeCheckpoint() error {
	if err := d.shadow.Swing(); err != nil {
		return err
	}
	// The staged copies are now current; drop the cache so reads fall
	// through to them.
	d.cache.Crash()
	d.log.AppendCheckpoint(d.log.NextLSN())
	d.noteCheckpoint()
	return nil
}

// Crash discards the cache, the volatile log tail, and any staging-area
// pages whose pointer swing never happened.
func (d *Logical) Crash() {
	d.shadow.Discard()
	d.base.Crash()
}

// RedoTest replays every operation after the checkpoint (base's
// Checkpointed is exactly what the pointer swing installed): the stable
// state is exactly the state the checkpoint determined, so each replayed
// operation reads precisely what it read during normal execution.
func (d *Logical) RedoTest() core.RedoTest { return redoAll }

// Analyze returns the analysis locating the last stable checkpoint (the
// classic "find the checkpoint record" scan).
func (d *Logical) Analyze() core.AnalyzeFunc {
	ck, ok := d.log.StableCheckpoint()
	return func(*model.State, *core.Log, graph.Set[model.OpID]) core.Analysis {
		if !ok {
			return core.LSN(1)
		}
		return ck.AtLSN
	}
}

var _ DB = (*Logical)(nil)
