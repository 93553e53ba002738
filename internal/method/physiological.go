package method

import (
	"fmt"

	"redotheory/internal/core"
	"redotheory/internal/graph"
	"redotheory/internal/model"
)

// Physiological implements Section 6.3: every operation reads and writes
// exactly one page, each page is tagged with the LSN of its last update,
// pages are installed one at a time (collapsing the page's write graph
// node into the stable minimum node), and the redo test compares the
// operation's LSN with the page's LSN. Checkpoints are fuzzy: the
// checkpoint records the minimum recLSN of the dirty pages, and every
// operation logged below that bound is already installed.
type Physiological struct {
	*base
}

// NewPhysiological returns a physiological-recovery DB over the initial
// state.
func NewPhysiological(initial *model.State) *Physiological {
	return &Physiological{base: newBase(initial)}
}

// Name returns "physiological".
func (d *Physiological) Name() string { return "physiological" }

// Exec runs a physiological operation: it must access exactly one page
// (its write set is one page, and its read set is empty or that same
// page).
func (d *Physiological) Exec(op *model.Op) error {
	if len(op.Writes()) != 1 {
		return fmt.Errorf("physiological: %s writes %d pages, want exactly 1", op, len(op.Writes()))
	}
	page := op.Writes()[0]
	if len(op.Reads()) > 1 || (len(op.Reads()) == 1 && op.Reads()[0] != page) {
		return fmt.Errorf("physiological: %s reads %v, may only read its own page %q", op, op.Reads(), page)
	}
	ws, err := d.computeThrough(op)
	if err != nil {
		return err
	}
	rec := d.log.Append(op, RecordSize(op, ws))
	d.cache.ApplyWrite(page, ws[0], rec.LSN)
	d.noteExec()
	return nil
}

// FlushOne installs one dirty page (no ordering constraints exist:
// single-page operations put no edges between page nodes, Section 6.3).
func (d *Physiological) FlushOne() bool { return d.cache.FlushFirst() }

// Checkpoint takes a fuzzy checkpoint: it records the minimum recLSN of
// the dirty pages (or the log end when clean) without flushing anything.
// Operations below the bound are installed, so recovery may ignore them.
func (d *Physiological) Checkpoint() error {
	bound, dirty := d.cache.MinRecLSN()
	if !dirty {
		bound = d.log.NextLSN()
	}
	d.log.AppendCheckpoint(bound)
	d.noteCheckpoint()
	return nil
}

// Checkpointed returns the stable-logged operations below the stable
// checkpoint's recLSN bound.
func (d *Physiological) Checkpointed() graph.Set[model.OpID] {
	ck, ok := d.log.StableCheckpoint()
	if !ok {
		return graph.NewSet[model.OpID]()
	}
	return checkpointedUpTo(d.StableLog(), ck.Payload.(core.LSN))
}

// RedoTest returns the page-LSN test of Section 6.3: redo an operation
// iff its LSN exceeds the stable LSN tagging its page. The test never
// updates the table: LSNs rise along the log, so once a record beats
// its page's stable tag every later record on that page does too, and
// the verdict depends on the record alone (reusable, order-free).
func (d *Physiological) RedoTest() core.RedoTest {
	lsns := d.store.LSNs()
	return func(r *core.Record, _ *model.State, _ *core.Log, _ core.Analysis) bool {
		return r.LSN > lsns[r.Op.Writes()[0]] // else already installed; bypass
	}
}

// Analyze returns nil: the page-LSN test needs no analysis phase beyond
// the checkpoint bound already consumed by Checkpointed.
func (d *Physiological) Analyze() core.AnalyzeFunc { return nil }

// Stats reports the method's counters.
func (d *Physiological) Stats() Stats { return d.stats() }

var _ DB = (*Physiological)(nil)
