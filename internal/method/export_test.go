package method

import "redotheory/internal/model"

// Fixtures shared with the external method_test package, which exists
// because its tests also drive serve and supervise, and both import
// method.

// CrashedDB is crashedDB.
var CrashedDB = crashedDB

// EachFactory calls f with every Section 6 method's name and constructor.
func EachFactory(f func(name string, mk func(*model.State) DB)) {
	for _, pf := range parallelFactories {
		f(pf.name, pf.mk)
	}
}

// RecoverInstalling is recoverInstalling.
var RecoverInstalling = recoverInstalling

// ChunkLen is chunkLen: how many records the pipelined decision runs
// ahead of replay, for a log of the given length.
var ChunkLen = chunkLen

// ForceHandoff makes RecoverParallel hand off to the pool after exactly
// chunks published chunks, each replayed in full, so a test can place
// the handoff at every chunk boundary; it returns the restore func.
func ForceHandoff(chunks int) (restore func()) {
	forcedHandoff = chunks
	return func() { forcedHandoff = -1 }
}
