package method

import (
	"fmt"

	"redotheory/internal/cache"
	"redotheory/internal/core"
	"redotheory/internal/model"
)

// GenLSN implements Section 6.4, generalized LSN-based recovery: logged
// operations may read pages other than the one they write (each still
// writes exactly one page, so single-page atomic installs suffice). Every
// written page is tagged with the operation's LSN, and the redo test is
// the page-LSN comparison, as in physiological recovery. What changes is
// the cache manager's obligation: a read-write conflict from operation O
// (read r, write w) to a later writer of r becomes a write graph edge —
// page w must be installed before page r's overwrite — and the method
// registers exactly those "careful write" dependencies with the cache.
// This is what lets a B-tree split log "read old page, write new page"
// instead of physically logging the moved half (Figure 8).
type GenLSN struct {
	*base
	// readersSince tracks, per page, the operations that read the page's
	// current version: LSN plus the page each one wrote. A later write of
	// the page turns each entry into a flush dependency.
	readersSince map[model.Var][]readerRef
}

type readerRef struct {
	lsn       core.LSN
	wrotePage model.Var
}

// NewGenLSN returns a generalized-LSN DB over the initial state.
func NewGenLSN(initial *model.State) *GenLSN {
	return &GenLSN{base: newBase(initial), readersSince: make(map[model.Var][]readerRef)}
}

// NewGenLSNMV returns a generalized-LSN DB whose cache retains multiple
// page versions (Section 1.3's multi-version regimes): when careful
// write-order dependencies form a cycle over the newest page versions —
// operations reading each other's pages crosswise — the cache can still
// make installation progress by flushing older versions, which
// corresponds to not collapsing the page's write graph nodes.
func NewGenLSNMV(initial *model.State) *GenLSN {
	return &GenLSN{base: newBaseMV(initial), readersSince: make(map[model.Var][]readerRef)}
}

// Name returns "genlsn" (or "genlsn+mv" for the multi-version variant).
func (d *GenLSN) Name() string {
	if d.cache.MultiVersion() {
		return "genlsn+mv"
	}
	return "genlsn"
}

// Exec runs a generalized operation: exactly one written page, any read
// pages. It logs a short logical descriptor (no after-images), applies
// the write to the cache, and registers the careful-write dependencies
// induced by the read-write edges ending at this operation.
func (d *GenLSN) Exec(op *model.Op) error {
	if len(op.Writes()) != 1 {
		return fmt.Errorf("genlsn: %s writes %d pages, want exactly 1", op, len(op.Writes()))
	}
	page := op.Writes()[0]
	ws, err := d.computeThrough(op)
	if err != nil {
		return err
	}
	rec := d.log.Append(op, RecordSize(op, ws))

	// Read-write edges into this operation: every reader of page's
	// current version that wrote some other page w must have w installed
	// before page carries this operation's effects on disk. (A reader
	// that wrote page itself is ordered by the page's own LSN chain.)
	for _, ref := range d.readersSince[page] {
		if ref.wrotePage != page {
			d.cache.AddDep(cache.Dep{
				Prereq:    ref.wrotePage,
				PrereqLSN: ref.lsn,
				Dependent: page,
				DepLSN:    rec.LSN,
			})
		}
	}
	d.readersSince[page] = nil

	// Record this operation as a reader of the current version of every
	// page it read (including its own page, before the write applies).
	for _, r := range op.Reads() {
		if r == page {
			continue
		}
		d.readersSince[r] = append(d.readersSince[r], readerRef{lsn: rec.LSN, wrotePage: page})
	}

	d.cache.ApplyWrite(page, ws[0], rec.LSN)
	d.noteExec()
	return nil
}

// FlushOne installs one dirty page whose careful-write dependencies and
// WAL gate allow it; the multi-version variant may install an older
// version of an otherwise blocked page.
func (d *GenLSN) FlushOne() bool {
	if d.cache.MultiVersion() {
		return d.cache.FlushFirstBest()
	}
	return d.cache.FlushFirst()
}

// RedoTest is the page-LSN test on the one written page, as in
// physiological recovery, behind base's fuzzy checkpoint. A replayed
// operation re-reads its read pages from the recovering state; the
// careful write order guarantees it observes exactly what it observed
// during normal execution.
func (d *GenLSN) RedoTest() core.RedoTest { return pageLSNTest(d.store.LSNs()) }

// CarefulWriteOrder is true: the read-write deps registered in Exec are
// exactly the install-order contract RedoTest's re-reads rely on.
func (d *GenLSN) CarefulWriteOrder() bool { return true }

// Crash discards volatile state including the reader tracking.
func (d *GenLSN) Crash() {
	d.base.Crash()
	d.readersSince = make(map[model.Var][]readerRef)
}

var _ DB = (*GenLSN)(nil)
