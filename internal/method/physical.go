package method

import (
	"fmt"

	"redotheory/internal/core"
	"redotheory/internal/graph"
	"redotheory/internal/model"
)

// Physical implements Section 6.2: the system operation is evaluated
// against the cache, but what reaches the log is one blind after-image
// write per updated page ("logging the exact bytes of data and the exact
// locations written"). Physical log operations read nothing, so the
// installation graph over the log has only write-write edges, every
// page's chain collapses to one node, and the redo test is trivial:
// replay everything since the last checkpoint. A checkpoint flushes all
// dirty pages and then writes the checkpoint record, atomically moving
// the covered operations out of redo_set; until then the variables those
// operations wrote are unexposed (nothing logged reads them), so early
// page flushes ("steal") are harmless.
type Physical struct {
	*base
	// nextID allocates ids for the physical log operations, which are
	// distinct from the system operations that generated them (the paper
	// stresses that the two operation sets "can be quite different").
	nextID model.OpID
}

// NewPhysical returns a physical-recovery DB over the initial state.
func NewPhysical(initial *model.State) *Physical {
	return &Physical{base: newBase(initial), nextID: 1}
}

// Name returns "physical".
func (d *Physical) Name() string { return "physical" }

// Exec evaluates the system operation against the cache and logs one
// blind after-image write per page it updated.
func (d *Physical) Exec(op *model.Op) error {
	ws, err := d.computeThrough(op)
	if err != nil {
		return err
	}
	for j, page := range op.Writes() {
		img := model.AssignConst(d.nextID, page, ws[j])
		d.nextID++
		rec := d.log.Append(img, RecordSize(img, ws[j:j+1]))
		d.cache.ApplyWrite(page, ws[j], rec.LSN)
	}
	d.noteExec()
	return nil
}

// FlushOne installs any dirty page; physical logging permits stealing at
// any time because uninstalled after-images keep their pages unexposed.
func (d *Physical) FlushOne() bool { return d.cache.FlushFirst() }

// Checkpoint flushes every dirty page and then writes the checkpoint
// record. Writing the record atomically installs all operations logged
// before it (their effects are already stable) and removes them from
// redo_set, preserving the recovery invariant (Section 6.2).
func (d *Physical) Checkpoint() error {
	if err := d.cache.FlushAll(); err != nil {
		return fmt.Errorf("physical: checkpoint flush: %w", err)
	}
	d.log.AppendCheckpoint(d.log.NextLSN())
	d.noteCheckpoint()
	return nil
}

// Checkpointed returns every stable-logged operation below the stable
// checkpoint.
func (d *Physical) Checkpointed() graph.Set[model.OpID] {
	ck, ok := d.log.StableCheckpoint()
	if !ok {
		return graph.NewSet[model.OpID]()
	}
	return checkpointedUpTo(d.StableLog(), ck.Payload.(core.LSN))
}

// RedoTest replays every non-checkpointed operation unconditionally:
// after-images are blind, so replay is idempotent and order within a page
// follows the log.
func (d *Physical) RedoTest() core.RedoTest {
	return func(*core.Record, *model.State, *core.Log, core.Analysis) bool { return true }
}

// Analyze returns nil; the checkpoint bound is the whole analysis.
func (d *Physical) Analyze() core.AnalyzeFunc { return nil }

// Stats reports the method's counters.
func (d *Physical) Stats() Stats { return d.stats() }

var _ DB = (*Physical)(nil)
