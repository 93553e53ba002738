package method

import (
	"fmt"

	"redotheory/internal/core"
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

// RedoTest returns the page-LSN test of Section 6.3 over the stable page
// LSNs. Checkpoints are base's fuzzy ones, and base.FlushOne may install
// any dirty page: single-page operations put no edges between page
// nodes (Section 6.3).
func (d *Physiological) RedoTest() core.RedoTest { return pageLSNTest(d.store.LSNs()) }

var _ DB = (*Physiological)(nil)
