package method

import (
	"fmt"

	"redotheory/internal/core"
	"redotheory/internal/model"
)

// This file implements restart-installing recovery: the pattern of
// LSN-based systems where recovery writes redone pages back to stable
// storage as it proceeds, so a crash *during* recovery leaves a state
// from which recovery simply restarts. Corollary 4's proof is exactly
// why this works: after every iteration the operations that will not be
// redone form a prefix of the installation graph explaining the current
// state, so each intermediate state is itself recoverable. The
// crash-during-recovery tests drive this to a fixed point and audit the
// invariant at every intermediate crash.

// Installer is implemented by methods whose recovery may persist redone
// work as it goes (the page-LSN and after-image families). Logical
// recovery deliberately does not implement it: System R keeps recovery's
// work volatile and re-runs from the checkpoint state after a crash.
type Installer interface {
	DB
	// InstallPage writes a page with its LSN tag directly into stable
	// storage, as restart recovery does after redoing an operation.
	InstallPage(x model.Var, v model.Value, lsn core.LSN)
}

// InstallPage writes through to the stable store.
func (b *base) InstallPage(x model.Var, v model.Value, lsn core.LSN) {
	b.store.Write(x, v, lsn)
}

// RecoverInstalling runs the recovery procedure over the DB's survivors,
// persisting every redone operation's writes (tagged with the
// operation's LSN) into stable storage, and stops early after stopAfter
// redone operations to simulate a crash mid-recovery (stopAfter < 0
// means run to completion). It returns how many operations it redid and
// whether it reached the end of the log.
//
// Redone pages are installed in log order, which satisfies every careful
// write-order dependency (a read-write edge's prerequisite operation
// always has the smaller LSN), and the write-ahead rule trivially (the
// log being replayed is already stable).
func RecoverInstalling(db Installer, stopAfter int) (int, bool, error) {
	state := db.StableState()
	log := db.StableLog()
	checkpoint := db.Checkpointed()
	redo := db.RedoTest()
	analysis, _ := core.RunAnalysis(nil, db.Analyze(), state, log, checkpoint)
	redone := 0
	for _, r := range log.Records() {
		if checkpoint.Has(r.Op.ID()) {
			continue
		}
		if stopAfter >= 0 && redone >= stopAfter {
			return redone, false, nil
		}
		if !redo(r, state, log, analysis) {
			continue
		}
		ws, err := state.Apply(r.Op)
		if err != nil {
			return redone, false, fmt.Errorf("method: restart recovery replaying %s: %w", r.Op, err)
		}
		for x, v := range ws {
			db.InstallPage(x, v, r.LSN)
		}
		redone++
	}
	return redone, true, nil
}
