// Package method implements the four real recovery methods of Section 6
// on top of the simulated substrates: logical (System R style, §6.1),
// physical (after-image logging, §6.2), physiological (page-LSN redo
// test, §6.3), and generalized LSN recovery (multi-page operations with
// careful write ordering, §6.4).
//
// Every method exposes the same DB interface so the simulator, the
// crash-matrix experiments, and the recovery-invariant checker treat them
// uniformly: execute an operation, take a checkpoint, let the background
// writer make progress, force the log, crash, and hand recovery exactly
// the four ingredients the paper's abstract procedure needs — a stable
// state, a stable log, a checkpoint set, and a redo test with its
// analysis function.
package method

import (
	"fmt"
	"sort"

	"redotheory/internal/cache"
	"redotheory/internal/core"
	"redotheory/internal/graph"
	"redotheory/internal/model"
	"redotheory/internal/obs"
	"redotheory/internal/storage"
	"redotheory/internal/wal"
)

// DB is a running database instance under one recovery method.
type DB interface {
	// Name identifies the method ("logical", "physical", …).
	Name() string
	// Exec runs one system operation through the method: it reads the
	// volatile state, computes, logs, and applies to the cache. The
	// logged operations may differ from the system operation (physical
	// logging turns one system operation into per-page blind writes).
	Exec(op *model.Op) error
	// Read returns the current volatile value of a variable.
	Read(x model.Var) model.Value
	// Checkpoint performs the method's checkpoint.
	Checkpoint() error
	// FlushOne lets the background writer install one eligible page; it
	// reports whether it made progress. Methods without stealing (logical
	// recovery) always report false.
	FlushOne() bool
	// FlushLog forces the log to stable storage.
	FlushLog()
	// Crash discards all volatile state (cache and unflushed log tail).
	Crash()

	// The recovery surface, valid after Crash, read by Survivors:

	// StableState returns the surviving page contents.
	StableState() *model.State
	// StableLog returns the surviving log prefix.
	StableLog() *core.Log
	// Checkpointed returns the operations the checkpoint lets recovery
	// ignore (Section 4.2): they are installed by construction.
	Checkpointed() graph.Set[model.OpID]
	// RedoTest returns a redo test bound to the current stable state.
	// A core.RedoTest sees only the record and the analysis, so every
	// test is a pure predicate: the page-LSN tests compare against the
	// stable page LSN table captured here, and one test gives the same
	// verdicts on a second call, in any record order, on any goroutine.
	RedoTest() core.RedoTest
	// Analyze returns the method's analysis function (may be nil).
	Analyze() core.AnalyzeFunc

	// Stats exposes counters for the experiments.
	Stats() Stats

	// SetRecorder attaches a telemetry recorder (nil disables): runtime
	// counters and events then flow from the method, its cache, and its
	// log manager, and recovery entry points pick it up for phase spans.
	SetRecorder(*obs.Recorder)
	// Recorder returns the attached recorder (nil when none).
	Recorder() *obs.Recorder

	// DisableWAL turns off the write-ahead-log gate (fault injection):
	// pages may then be installed before their log records are stable.
	// The recovery-invariant checker catches the resulting states.
	DisableWAL()

	// SetInstallHook registers a callback fired after every page install
	// with the page and its LSN — the online auditor's feed. Methods
	// whose installs bypass the cache (logical recovery's pointer swing)
	// do not fire it.
	SetInstallHook(func(model.Var, core.LSN))

	// RecoveryBase returns the state the surviving log applies against:
	// the initial state plus every log-truncated operation.
	RecoveryBase() *model.State

	// The degraded-recovery surface (media faults):

	// Store exposes the stable page store, where integrity validation and
	// quarantine repair happen.
	Store() *storage.Store
	// WAL exposes the log manager, where tail validation and truncation
	// repair happen.
	WAL() *wal.Manager
	// RecoveryBaseLSNs returns, per page, the highest LSN folded into the
	// recovery base by log truncation (0 when none): the LSN floor any
	// surviving stable page must sit at or above.
	RecoveryBaseLSNs() map[model.Var]core.LSN
	// CheckpointBound returns the newest stable checkpoint's LSN bound
	// (records below it are installed) and whether one exists.
	CheckpointBound() (core.LSN, bool)
	// CarefulWriteOrder reports whether the method's cache enforces
	// read-write careful write ordering (Section 6.4): a page overwrite
	// installs only after every page written by a reader of its previous
	// version. Methods whose redo tests re-read the recovering state
	// depend on it; degraded recovery audits it from the log only when
	// the method claims it.
	CarefulWriteOrder() bool
}

// Stats aggregates the counters the experiments report.
type Stats struct {
	OpsExecuted int
	LogRecords  int
	LogBytes    int
	PageFlushes int
	LogForces   int
	Checkpoints int
	StablePages int
}

// Survivors reads a crashed DB's recovery surface into the value every
// recovery engine and oracle runs on, projecting the state afresh. It is
// the one place the surface is read, and a function over DB rather than
// a base method, so it binds the RedoTest and Analyze a method overrides.
func Survivors(db DB) core.Survivors {
	return core.Survivors{State: db.StableState(), Log: db.StableLog(), Checkpoint: db.Checkpointed(), Redo: db.RedoTest(), Analyze: db.Analyze()}
}

// Recover runs the paper's abstract recovery procedure (Figure 6) over a
// crashed DB's survivors and returns the rebuilt state together with the
// procedure's Result. The DB itself is not modified: recovery consumes
// a fresh Survivors value, whose state is a projection of the stable
// store, exactly as the Recovery Invariant's hypothetical does.
//
// This is the shipped path: core.RecoverDense, the instantiation of the
// scan kernel (core.Scan) whose step replays interned record views
// against a columnar state. The map-based core.Recover instantiates the
// same kernel and is the reference the checker runs and the
// differential tests compare against.
func Recover(db DB) (*core.Result, error) {
	return RecoverObserved(db, nil)
}

// RecoverObserved is Recover with telemetry: phase spans, redo-test
// verdict events, and replay timing flow to the recorder. A nil recorder
// makes it exactly Recover.
func RecoverObserved(db DB, rec *obs.Recorder) (*core.Result, error) {
	return core.RecoverDense(rec, Survivors(db))
}

// base carries the substrate wiring shared by all methods.
type base struct {
	store       *storage.Store
	log         *wal.Manager
	cache       *cache.Manager
	opsExecuted int
	checkpoints int
	// recoveryBase is the state recovery starts reasoning from: the
	// initial state plus every log-truncated operation. Log truncation
	// (TruncateCheckpointed) folds dropped records into it.
	recoveryBase *model.State
	// baseLSNs records, per page, the highest truncated-record LSN whose
	// write is folded into recoveryBase. Degraded recovery uses it as the
	// floor a stale (lost-write) stable page falls below.
	baseLSNs map[model.Var]core.LSN
	// rec is the attached telemetry recorder (nil = disabled).
	rec *obs.Recorder
}

func newBase(initial *model.State) *base {
	st := storage.FromState(initial)
	lg := wal.NewManager()
	return &base{store: st, log: lg, cache: cache.NewManager(st, lg),
		recoveryBase: initial.Clone(), baseLSNs: make(map[model.Var]core.LSN)}
}

// newBaseMV wires a multi-version cache (see cache.NewMVManager).
func newBaseMV(initial *model.State) *base {
	st := storage.FromState(initial)
	lg := wal.NewManager()
	return &base{store: st, log: lg, cache: cache.NewMVManager(st, lg),
		recoveryBase: initial.Clone(), baseLSNs: make(map[model.Var]core.LSN)}
}

// SetRecorder attaches a telemetry recorder to the method and both its
// substrates (cache installs, WAL forces). Pass nil to disable.
func (b *base) SetRecorder(rec *obs.Recorder) {
	b.rec = rec
	b.cache.SetRecorder(rec)
	b.log.SetRecorder(rec)
}

// Recorder returns the attached telemetry recorder (nil when none).
func (b *base) Recorder() *obs.Recorder { return b.rec }

// noteExec counts one executed operation; methods call it where they
// bump opsExecuted.
func (b *base) noteExec() {
	b.opsExecuted++
	b.rec.Inc(obs.MDBExec)
}

// noteCheckpoint counts one completed checkpoint.
func (b *base) noteCheckpoint() {
	b.checkpoints++
	b.rec.Inc(obs.MDBCheckpoints)
}

// RecoveryBase returns (a clone of) the state the surviving log's
// operations apply against: the original initial state plus every
// truncated operation.
func (b *base) RecoveryBase() *model.State { return b.recoveryBase.Clone() }

// RecoveryBaseLSNs returns a copy of the per-page LSN floors implied by
// log truncation.
func (b *base) RecoveryBaseLSNs() map[model.Var]core.LSN {
	out := make(map[model.Var]core.LSN, len(b.baseLSNs))
	for x, lsn := range b.baseLSNs {
		out[x] = lsn
	}
	return out
}

// Store exposes the stable page store for validation and repair.
func (b *base) Store() *storage.Store { return b.store }

// WAL exposes the log manager for validation and repair.
func (b *base) WAL() *wal.Manager { return b.log }

// CarefulWriteOrder is false for the base: most methods' redo tests
// never read pages other than the one being redone.
func (b *base) CarefulWriteOrder() bool { return false }

// Checkpoint takes the fuzzy checkpoint of Sections 6.3–6.4 without
// flushing anything: it records the minimum recLSN of the dirty pages
// (or the log end when the cache is clean). Every operation logged below
// that bound has its pages installed, so recovery may ignore it.
// Physical, logical and +dpt override it.
func (b *base) Checkpoint() error {
	b.log.AppendCheckpoint(b.fuzzyBound())
	b.noteCheckpoint()
	return nil
}

// fuzzyBound is the fuzzy checkpoint's installed-below bound.
func (b *base) fuzzyBound() core.LSN {
	bound, dirty := b.cache.MinRecLSN()
	if !dirty {
		bound = b.log.NextLSN()
	}
	return bound
}

// Checkpointed returns the stable-logged operations below the newest
// stable checkpoint's bound: the operations its checkpoint installed
// (the pointer swing, the flush-all, or the fuzzy bound), whichever
// payload shape carries the bound.
func (b *base) Checkpointed() graph.Set[model.OpID] {
	bound, ok := b.CheckpointBound()
	if !ok {
		return graph.NewSet[model.OpID]()
	}
	return checkpointedUpTo(b.StableLog(), bound)
}

// Analyze returns nil: the checkpoint bound, already consumed by
// Checkpointed, is the whole analysis. Logical and +dpt override it.
func (b *base) Analyze() core.AnalyzeFunc { return nil }

// FlushOne installs the first dirty page the cache's write-order and WAL
// gates allow, and reports whether it made progress.
func (b *base) FlushOne() bool { return b.cache.FlushFirst() }

// CheckpointBound returns the newest stable checkpoint's installed-below
// LSN bound. Both checkpoint payload shapes carry one.
func (b *base) CheckpointBound() (core.LSN, bool) {
	ck, ok := b.log.StableCheckpoint()
	if !ok {
		return 0, false
	}
	switch payload := ck.Payload.(type) {
	case core.LSN:
		return payload, true
	case dptCheckpoint:
		return payload.bound, true
	}
	return 0, false
}

// TruncateCheckpointed drops the stable log records the newest stable
// checkpoint covers, folding their effects into the recovery base state
// first, and returns how many records were dropped. This is the
// checkpoint's log-bounding purpose: "the recovery procedure need only
// examine the part of the log following this checkpointed log prefix"
// (Section 4), so the prefix itself can go.
func (b *base) TruncateCheckpointed() (int, error) {
	bound, ok := b.CheckpointBound()
	if !ok {
		if _, hasCk := b.log.StableCheckpoint(); hasCk {
			return 0, fmt.Errorf("method: unrecognized checkpoint payload")
		}
		return 0, nil
	}
	// Records below a stable checkpoint's bound are stable, so the live
	// log serves; a StableLog prefix would share the log's view, and
	// the next page named would copy its ids.
	for _, r := range b.log.Log().Records() {
		if r.LSN >= bound {
			break
		}
		if _, err := b.recoveryBase.Apply(r.Op); err != nil {
			return 0, fmt.Errorf("method: rebasing truncated op %s: %w", r.Op, err)
		}
		for _, x := range r.Op.Writes() {
			b.baseLSNs[x] = r.LSN
		}
	}
	return b.log.TruncateBefore(bound)
}

// Truncator is satisfied by methods that support log truncation (all of
// them, via base); the simulator type-asserts for it.
type Truncator interface {
	TruncateCheckpointed() (int, error)
}

// Read returns the volatile value of a variable.
func (b *base) Read(x model.Var) model.Value { return b.cache.Read(x) }

// DisableWAL turns off the write-ahead gate on the cache (fault
// injection).
func (b *base) DisableWAL() { b.cache.EnforceWAL = false }

// SetInstallHook registers the cache's install callback.
func (b *base) SetInstallHook(f func(model.Var, core.LSN)) { b.cache.OnInstall = f }

// FlushLog forces the log.
func (b *base) FlushLog() { b.log.Flush() }

// Log returns the full volatile log (test and experiment access).
func (b *base) Log() *core.Log { return b.log.Log() }

// Crash discards the cache and the volatile log tail.
func (b *base) Crash() {
	b.cache.Crash()
	b.log.Crash()
}

// StableState projects the stable page store.
func (b *base) StableState() *model.State { return b.store.State() }

// StableLog returns the stable log prefix.
func (b *base) StableLog() *core.Log { return b.log.StableLog() }

// Stats reports the method's counters.
func (b *base) Stats() Stats {
	return Stats{
		OpsExecuted: b.opsExecuted,
		LogRecords:  b.log.Log().Len(),
		LogBytes:    b.log.BytesTotal(),
		PageFlushes: b.cache.Flushes,
		LogForces:   b.log.Forces,
		Checkpoints: b.checkpoints,
		StablePages: b.store.Len(),
	}
}

// FlushPage installs one specific dirty page if its dependencies allow;
// experiments use it to shape which pages pin the checkpoint bound.
func (b *base) FlushPage(x model.Var) error { return b.cache.Flush(x) }

// redoAll is the redo test that replays every unrecovered record.
func redoAll(*core.Record, core.Analysis) bool { return true }

// pageLSNTest is the page-LSN test of Section 6.3 for operations that
// write one page: redo a record iff its LSN exceeds the stable LSN
// tagging the page it writes (else it is already installed). The table
// is never updated: LSNs rise along the log, so once a record beats its
// page's stable tag every later record on that page does too.
func pageLSNTest(lsns map[model.Var]core.LSN) core.RedoTest {
	return func(r *core.Record, _ core.Analysis) bool {
		return r.LSN > lsns[r.Op.Writes()[0]]
	}
}

// checkpointedUpTo returns the stable-logged operations with LSN strictly
// below the bound: the canonical "ops the checkpoint covers" set.
func checkpointedUpTo(log *core.Log, bound core.LSN) graph.Set[model.OpID] {
	recs := log.Records()
	recs = recs[:sort.Search(len(recs), func(i int) bool { return recs[i].LSN >= bound })]
	out := make(graph.Set[model.OpID], len(recs))
	for _, r := range recs {
		out.Add(r.Op.ID())
	}
	return out
}

// RecordSize models a log record's wire size: a fixed header, the
// operation name (the "logical" payload descriptor), one page id per
// written page, and — for operations with an empty read set — the full
// after-image of every written value. An operation that reads nothing is
// not a recomputable function: replay can only reproduce its writes if
// the exact bytes travel through the log (physical logging). An
// operation with reads is replayed by recomputation, so only its
// descriptor is logged. This is what makes the Section 6.4 log-volume
// comparison meaningful: a physiological B-tree split must physically
// log the moved half (a blind init of the new page), while a generalized
// split reads the old page and ships only a short descriptor. written
// holds the values of op.Writes(), in order.
func RecordSize(op *model.Op, written []model.Value) int {
	const header = 16
	size := header + len(op.Name())
	for j, x := range op.Writes() {
		size += len(x)
		if len(op.Reads()) == 0 {
			size += len(written[j])
		}
	}
	return size
}

// computeThrough evaluates a system operation against the cache and
// returns the values of op.Writes(), in order, without applying them.
func (b *base) computeThrough(op *model.Op) ([]model.Value, error) {
	out, err := op.ApplyFrom(b.cache.Read)
	if err != nil {
		return nil, fmt.Errorf("method: computing %s: %w", op, err)
	}
	return out, nil
}
