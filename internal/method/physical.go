package method

import (
	"fmt"

	"redotheory/internal/core"
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

// RedoTest replays every non-checkpointed operation unconditionally:
// after-images are blind, so replay is idempotent and order within a page
// follows the log. Physical logging permits stealing at any time
// (base.FlushOne) because uninstalled after-images keep their pages
// unexposed.
func (d *Physical) RedoTest() core.RedoTest { return redoAll }

var _ DB = (*Physical)(nil)
