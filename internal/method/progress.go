package method

import (
	"redotheory/internal/core"
	"redotheory/internal/model"
)

// This file is the recovery-progress checkpoint: a fuzzy checkpoint a
// *supervised* restart-installing recovery appends mid-flight so the
// next attempt, after a nested crash, skips the prefix it already
// installed. Soundness is Corollary 4's argument made durable: the
// installing pass processes the stable log in order, so when it has
// settled every record below some LSN bound — each one either covered
// by the previous checkpoint, rejected by the redo test (installed), or
// just installed — the claim "operations below bound are installed" is
// exactly the checkpoint contract of Section 4.2, and appending a
// checkpoint record with that bound is a legal fuzzy checkpoint taken
// during recovery (the restart analogue of ARIES fuzzy checkpointing).
//
// The payload must be whatever the method's Analyze expects: a plain
// core.LSN bound for the scalar-payload methods, a dirty-page-table
// snapshot for the ARIES-style analysis variant. base.Checkpointed reads
// the bound out of either shape.

// ProgressCheckpointer is implemented by methods that accept a
// recovery-progress checkpoint. All methods embed the base
// implementation; whether taking one is *meaningful* is governed by
// InstallsDuringRecovery — logical recovery keeps recovery work
// volatile, so a progress checkpoint would claim installs that never
// reached the stable state.
type ProgressCheckpointer interface {
	// AppendProgressCheckpoint appends a fuzzy checkpoint claiming every
	// stable-logged operation with LSN < bound is installed. The caller
	// (the recovery supervisor) is responsible for the claim being true.
	AppendProgressCheckpoint(bound core.LSN)
	// InstallsDuringRecovery reports whether the method's recovery may
	// persist redone work as it goes (the page-LSN and after-image
	// families). When false, recovery work is volatile and progress
	// checkpoints must not be taken.
	InstallsDuringRecovery() bool
}

// AppendProgressCheckpoint appends the scalar-bound checkpoint payload
// every LSN-bound method understands.
func (b *base) AppendProgressCheckpoint(bound core.LSN) {
	b.log.AppendCheckpoint(bound)
}

// InstallsDuringRecovery is true for the base: restart-installing
// recovery works for every method whose redo test tolerates installed
// prefixes. Logical recovery overrides it to false.
func (b *base) InstallsDuringRecovery() bool { return true }

// AppendProgressCheckpoint overrides the scalar payload with a
// dirty-page-table snapshot, which is what this method's Analyze and
// CheckpointFloors expect. The reconstructed table maps
// each page with uninstalled records to its recLSN — the first stable
// record at or above the bound that writes it. That is precisely the
// table a fuzzy checkpoint taken at this point of recovery would
// claim: pages absent from the table have all their records below the
// bound (installed by the in-order installing pass), and for a present
// page everything below its recLSN is likewise below the bound.
func (d *PhysiologicalDPT) AppendProgressCheckpoint(bound core.LSN) {
	dpt := make(map[model.Var]core.LSN)
	for _, r := range d.StableLog().Records() {
		if r.LSN < bound {
			continue
		}
		page := r.Op.Writes()[0]
		if _, ok := dpt[page]; !ok {
			dpt[page] = r.LSN
		}
	}
	d.log.AppendCheckpoint(dptCheckpoint{bound: bound, dpt: dpt})
}

// InstallsDuringRecovery is false: System R recovery keeps its work
// volatile (the stable state changes only through the checkpoint's
// atomic pointer swing), so there is never installed recovery work for
// a progress checkpoint to record.
func (d *Logical) InstallsDuringRecovery() bool { return false }
