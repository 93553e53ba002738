package core

import (
	"redotheory/internal/conflict"
	"redotheory/internal/graph"
	"redotheory/internal/install"
	"redotheory/internal/model"
)

// Auditor is the online form of the recovery-invariant checker: instead
// of building the graphs from a log after the fact, a running LSN-based
// system feeds it events as they happen — each logged operation, each
// page install — and can ask at any moment whether a crash right now
// would leave a recoverable state. It is a Checker grown one operation
// at a time: the conflict graph grows by appending, the installation
// graph syncs only the new edges, and the ledger records each
// operation's written values as it executes, so an audit never replays
// history.
//
// The auditor derives the installed set the way LSN recovery does
// (Section 6.3/6.4): an operation is installed when every page it wrote
// carries a stable LSN at least as large as the operation's. Feeding it
// a method with a different installed-set discipline (System R logical
// recovery) requires NewChecker and an explicit installed set instead.
type Auditor = Checker

// NewAuditor returns an online auditor over the given initial state.
func NewAuditor(initial *model.State) *Auditor {
	cg := conflict.New()
	return newChecker(cg, install.NewIncremental(cg), NewLog(), initial)
}

// Logged records the next logged operation and returns its LSN. The
// auditor executes the operation against its running copy of the
// volatile state to learn the values it wrote.
func (a *Auditor) Logged(op *model.Op) (LSN, error) {
	if err := a.apply(op); err != nil {
		return 0, err
	}
	rec := a.log.Append(op)
	a.cg.Append(op)
	a.ig.Sync()
	return rec.LSN, nil
}

// PageInstalled records that a page reached stable storage tagged with
// the given LSN.
func (a *Auditor) PageInstalled(x model.Var, lsn LSN) {
	if lsn > a.stableLSN[x] {
		a.stableLSN[x] = lsn
	}
}

// InstalledSet derives the operations the page-LSN discipline considers
// installed: every written page stable at or beyond the operation's LSN.
func (a *Auditor) InstalledSet() graph.Set[model.OpID] {
	out := graph.NewSet[model.OpID]()
	for _, r := range a.log.Records() {
		installed := true
		for _, x := range r.Op.Writes() {
			if a.stableLSN[x] < r.LSN {
				installed = false
				break
			}
		}
		if installed {
			out.Add(r.Op.ID())
		}
	}
	return out
}

// Audit checks the Recovery Invariant for a hypothetical crash right
// now: the derived installed set must induce a prefix of the
// installation graph that explains the given stable state.
func (a *Auditor) Audit(stable *model.State) *Report {
	a.Audits++
	return a.CheckInstalled(stable, a.InstalledSet())
}

// Log returns the auditor's log view of the history.
func (a *Auditor) Log() *Log { return a.log }
