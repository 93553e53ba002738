package method

import (
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

// Installer is the DB surface restart-installing recovery writes through.
// Every method implements it via base, logical recovery included; what
// keeps logical out of installing recovery is its
// InstallsDuringRecovery() returning false (System R keeps recovery's
// work volatile and re-runs from the checkpoint state after a crash), so
// callers check that before installing.
type Installer interface {
	DB
	// installPage writes a page with its LSN tag directly into stable
	// storage, as restart recovery does after redoing an operation.
	installPage(x model.Var, v model.Value, lsn core.LSN)
}

// installPage writes through to the stable store.
func (b *base) installPage(x model.Var, v model.Value, lsn core.LSN) {
	b.store.Write(x, v, lsn)
}

// InstallRedo is the step of restart-installing recovery: redo r against
// the recovering state and persist its writes tagged with r's LSN.
func InstallRedo(db Installer, state *model.State, r *core.Record) error {
	ws, err := state.Apply(r.Op)
	for x, v := range ws {
		db.installPage(x, v, r.LSN)
	}
	return err
}
