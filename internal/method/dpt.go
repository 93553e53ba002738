package method

import (
	"sort"

	"redotheory/internal/core"
	"redotheory/internal/graph"
	"redotheory/internal/model"
)

// PhysiologicalDPT is physiological recovery with an ARIES-style
// analysis phase (Section 4.3's "analysis phase usually happens at most
// once, at the start of recovery"): checkpoints snapshot the dirty page
// table (page → recLSN), recovery's analysis function rebuilds the table
// by scanning the log forward from the checkpoint, and the redo test
// consults it to skip operations without touching their pages at all —
// a page absent from the reconstructed table was clean at the
// checkpoint and never re-dirtied, so everything logged for it is
// installed; an operation below its page's recLSN predates the page's
// first post-flush update, so it is installed too. Only operations that
// survive both filters pay the page-LSN comparison.
type PhysiologicalDPT struct {
	*Physiological
}

// dptCheckpoint is the checkpoint payload: the redo scan bound plus the
// dirty page table at checkpoint time.
type dptCheckpoint struct {
	bound core.LSN
	dpt   map[model.Var]core.LSN
}

// NewPhysiologicalDPT returns a physiological DB whose recovery runs an
// ARIES-style analysis phase.
func NewPhysiologicalDPT(initial *model.State) *PhysiologicalDPT {
	return &PhysiologicalDPT{Physiological: NewPhysiological(initial)}
}

// Name returns "physiological+dpt".
func (d *PhysiologicalDPT) Name() string { return "physiological+dpt" }

// Checkpoint records the fuzzy bound and a snapshot of the dirty page
// table: each dirty page with its recLSN, the LSN of the first update
// since the page was last installed. Everything logged for the page
// below its recLSN is installed.
func (d *PhysiologicalDPT) Checkpoint() error {
	dpt := make(map[model.Var]core.LSN)
	for _, id := range d.cache.DirtyPages() {
		if lsn, ok := d.cache.RecLSN(id); ok {
			dpt[id] = lsn
		}
	}
	d.log.AppendCheckpoint(dptCheckpoint{bound: d.fuzzyBound(), dpt: dpt})
	d.noteCheckpoint()
	return nil
}

// Analyze reconstructs the dirty page table in one pass: start from the
// checkpoint's snapshot and scan the stable log forward from the
// checkpoint position, entering each newly dirtied page with the
// dirtying record's LSN.
func (d *PhysiologicalDPT) Analyze() core.AnalyzeFunc {
	ckPayload := dptCheckpoint{bound: 1, dpt: nil}
	at := core.LSN(1)
	if ck, ok := d.log.StableCheckpoint(); ok {
		ckPayload = ck.Payload.(dptCheckpoint)
		at = ck.AtLSN
	}
	return func(_ *model.State, log *core.Log, _ graph.Set[model.OpID]) core.Analysis {
		dpt := make(map[model.Var]core.LSN, len(ckPayload.dpt))
		for p, lsn := range ckPayload.dpt {
			dpt[p] = lsn
		}
		recs := log.Records()
		from := sort.Search(len(recs), func(i int) bool { return recs[i].LSN >= at })
		for _, r := range recs[from:] {
			page := r.Op.Writes()[0]
			if _, ok := dpt[page]; !ok {
				dpt[page] = r.LSN
			}
		}
		return dpt
	}
}

// CheckpointFloors returns the per-page installed-LSN floors the dirty
// page table implies, which are stronger than the scalar bound: a page
// absent from the table was clean at the checkpoint, so every record for
// it below the checkpoint's position is installed; a page present with
// recLSN r has everything below r installed. RedoTest skips on exactly
// these claims without reading the page, so degraded recovery must be
// able to audit them — a stable page below its floor is a lost write
// that the skip would otherwise preserve silently.
func (d *PhysiologicalDPT) CheckpointFloors() map[model.Var]core.LSN {
	ck, ok := d.log.StableCheckpoint()
	if !ok {
		return nil
	}
	payload := ck.Payload.(dptCheckpoint)
	floors := make(map[model.Var]core.LSN)
	for _, r := range d.StableLog().Records() {
		if r.LSN >= ck.AtLSN {
			break
		}
		p := r.Op.Writes()[0]
		rec, dirty := payload.dpt[p]
		if (!dirty || r.LSN < rec) && r.LSN > floors[p] {
			floors[p] = r.LSN
		}
	}
	return floors
}

// RedoTest filters through the reconstructed table before falling back
// to the stable page-LSN comparison (pageLSNTest). A rejection by the
// table is decided without reading the page.
func (d *PhysiologicalDPT) RedoTest() core.RedoTest {
	byPage := pageLSNTest(d.store.LSNs())
	return func(r *core.Record, analysis core.Analysis) bool {
		if dpt, ok := analysis.(map[model.Var]core.LSN); ok {
			rec, dirty := dpt[r.Op.Writes()[0]]
			if !dirty || r.LSN < rec {
				return false
			}
		}
		return byPage(r, analysis)
	}
}

var _ DB = (*PhysiologicalDPT)(nil)
