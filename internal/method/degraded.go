package method

import (
	"fmt"
	"sort"

	"redotheory/internal/core"
	"redotheory/internal/fault"
	"redotheory/internal/model"
	"redotheory/internal/obs"
	"redotheory/internal/wal"
)

// This file is graceful degradation: recovery when the stable state lies.
// The paper's recovery procedure (Figure 6) assumes a clean crash — the
// stable log and pages are exactly what was forced. RecoverDegraded
// weakens that assumption: it first audits both substrates with their
// integrity metadata, and only when they check out does it run the
// method's own fast recovery. On any detection it falls back to the one
// plan that needs no per-method trust: truncate the log to its last
// trustworthy record, fall back to the recovery base (initial state plus
// checkpoint-truncated operations), and replay every surviving logged
// operation in log order. Lemma 1 is the correctness argument — the log
// order is consistent with the conflict order, so full replay from the
// base regenerates exactly the state the surviving log describes — which
// makes the conservative path the media-failure analogue of archive
// recovery (Section 7).

// DegradedOptions tunes RecoverDegraded.
type DegradedOptions struct {
	// AbortAfterRepairs, when ≥ 0, crashes degraded recovery after that
	// many repair page writes (the fault.CrashInRecovery scenario); a
	// rerun must converge. Negative runs to completion.
	AbortAfterRepairs int
}

// RunToCompletion is the default: never abort mid-repair.
func RunToCompletion() DegradedOptions { return DegradedOptions{AbortAfterRepairs: -1} }

// DegradedResult reports what degraded recovery found and produced.
type DegradedResult struct {
	// State is the recovered state (nil when Unrecoverable or Aborted).
	State *model.State
	// Detections lists every integrity failure found, across both
	// substrates and all detection phases.
	Detections []fault.Detection
	// Degraded is true when the conservative full-replay path ran
	// (false: the substrates were clean and the method's own fast
	// recovery ran).
	Degraded bool
	// Unrecoverable is true when detected damage provably lost committed
	// work: orphan pages carrying effects of vanished log records, or
	// valid records stranded past a rotted one. The caller gets the
	// detections, not a state.
	Unrecoverable bool
	// Aborted is true when AbortAfterRepairs stopped the repair phase.
	Aborted bool
	// Quarantined lists the pages validation refused to trust; the
	// conservative path rewrites all of them.
	Quarantined []model.Var
	// Tail is the log repair's report.
	Tail wal.TailRepair
	// Audit is the core invariant checker's verdict on the outcome.
	Audit *core.Report
}

// detect appends a detection.
func (r *DegradedResult) detect(code, format string, args ...interface{}) {
	r.Detections = append(r.Detections, fault.Detection{Code: code, Detail: fmt.Sprintf(format, args...)})
}

// quarantine marks a page untrusted (idempotently).
func (r *DegradedResult) quarantine(x model.Var) {
	for _, q := range r.Quarantined {
		if q == x {
			return
		}
	}
	r.Quarantined = append(r.Quarantined, x)
}

// RecoverDegraded validates the crashed DB's substrates, repairs what it
// can, and recovers. It is the media-fault-tolerant entry point every
// method shares; db must be post-Crash.
func RecoverDegraded(db DB, opts DegradedOptions) (*DegradedResult, error) {
	res := &DegradedResult{}
	st := db.Store()
	rec := db.Recorder()
	defer func() {
		for _, d := range res.Detections {
			rec.Inc(obs.MDetections)
			rec.Emit(obs.Event{Type: obs.EvDetection, Detail: d.Code + ": " + d.Detail})
		}
	}()

	// Phase 1 — log: per-record checksums and the chained tail anchor.
	// RepairTail already truncates to the last trustworthy record and
	// drops stranded checkpoints, so everything below reads the repaired
	// log.
	res.Tail = db.WAL().RepairTail()
	res.Detections = append(res.Detections, res.Tail.Detections...)

	// Phase 2 — pages: checksum every stable page.
	for _, id := range st.VerifyAll() {
		res.detect("corrupt-page", "page %q fails its checksum", id)
		res.quarantine(id)
	}

	// Phase 3 — torn groups: an atomic multi-page write whose intent
	// journal was never cleared left an unknown mix of old and new
	// versions, every one of them individually checksum-valid.
	if intent := st.PendingGroupIntent(); intent != nil {
		res.detect("torn-group", "group write over %v never completed", intent)
		for _, id := range intent {
			res.quarantine(id)
		}
	}

	// The repaired log: the phases and the conservative path read it
	// alone, so the full survivors value is taken on the fast path only.
	log := db.StableLog()
	bound, hasCk := db.CheckpointBound()

	// Phase 4 — stale pages: the checkpoint contract says operations
	// below the bound are installed, and log truncation already folded
	// records below previous bounds into the recovery base. Both imply a
	// per-page LSN floor; a stable page tagged below its floor is a lost
	// write — the disk acknowledged an install and kept the old version.
	floors := db.RecoveryBaseLSNs()
	if hasCk {
		for _, r := range log.Records() {
			if r.LSN >= bound {
				break
			}
			for _, x := range r.Op.Writes() {
				if r.LSN > floors[x] {
					floors[x] = r.LSN
				}
			}
		}
	}
	// A method whose checkpoint payload makes per-page installation
	// claims beyond the scalar bound (the dirty-page-table variant) must
	// expose them, because its redo test will skip on them unread.
	if fl, ok := db.(interface{ CheckpointFloors() map[model.Var]core.LSN }); ok {
		for x, lsn := range fl.CheckpointFloors() {
			if lsn > floors[x] {
				floors[x] = lsn
			}
		}
	}
	floorVars := make([]model.Var, 0, len(floors))
	for x := range floors {
		floorVars = append(floorVars, x)
	}
	sort.Slice(floorVars, func(i, j int) bool { return floorVars[i] < floorVars[j] })
	for _, x := range floorVars {
		if st.PageLSN(x) < floors[x] {
			res.detect("stale-page", "page %q is at LSN %d, below its installed floor %d (lost write)",
				x, st.PageLSN(x), floors[x])
			res.quarantine(x)
		}
	}

	// Phase 4b — careful write order: when the method's redo test re-reads
	// the recovering state (genlsn family), correctness rests on the
	// install-order contract that a page overwrite reaches disk only after
	// every page written by a reader of its previous version. A lost write
	// can break this invisibly — the reverted page is checksum-valid and
	// may sit above every floor — but the contract is reconstructible from
	// the log's read sets, mirroring the dependency registration in Exec:
	// if page p carries LSN ≥ L (the overwrite installed), every page w
	// written at L' by a reader of p's pre-L version must carry LSN ≥ L'.
	if db.CarefulWriteOrder() {
		type readerRef struct {
			lsn   core.LSN
			wrote model.Var
		}
		readers := make(map[model.Var][]readerRef)
		for _, r := range log.Records() {
			ws := r.Op.Writes()
			if len(ws) != 1 {
				continue
			}
			p := ws[0]
			for _, ref := range readers[p] {
				if ref.wrote != p && st.PageLSN(p) >= r.LSN && st.PageLSN(ref.wrote) < ref.lsn {
					res.detect("careful-order", "page %q at LSN %d requires %q ≥ %d, found %d (lost write)",
						p, st.PageLSN(p), ref.wrote, ref.lsn, st.PageLSN(ref.wrote))
					res.quarantine(ref.wrote)
				}
			}
			readers[p] = nil
			for _, x := range r.Op.Reads() {
				if x == p {
					continue
				}
				readers[x] = append(readers[x], readerRef{lsn: r.LSN, wrote: p})
			}
		}
	}

	// Phase 5 — orphan pages: a page tagged past every surviving log
	// record carries effects whose records are gone. The work was
	// acknowledged durable; no surviving evidence can replay or even
	// verify it — detected, but not recoverable.
	maxPlausible := log.MaxLSN()
	if hasCk && bound > 0 && bound-1 > maxPlausible {
		maxPlausible = bound - 1
	}
	for _, id := range st.PageIDs() {
		if lsn := st.PageLSN(id); lsn > maxPlausible {
			res.detect("orphan-page", "page %q is at LSN %d but the log ends at %d; its records are lost",
				id, lsn, maxPlausible)
			res.quarantine(id)
			res.Unrecoverable = true
		}
	}
	if res.Tail.DroppedValid > 0 {
		// Valid records stranded past a rotted one: committed operations
		// recovery can no longer replay.
		res.Unrecoverable = true
	}

	// Phase 6 — partial multi-record installs: a record writing several
	// pages where only some carry its LSN. Methods with atomic group
	// installs can never produce this on a clean crash (their redo tests
	// rely on it — grouplsn's panics otherwise), so it means a torn or
	// lost page write, including one left behind by an aborted earlier
	// repair.
	for _, r := range log.Records() {
		ws := r.Op.Writes()
		if len(ws) < 2 {
			continue
		}
		ahead, behind := 0, 0
		for _, x := range ws {
			if st.PageLSN(x) >= r.LSN {
				ahead++
			} else {
				behind++
			}
		}
		if ahead > 0 && behind > 0 {
			res.detect("partial-group", "record %d wrote %d pages but only %d reflect it", r.LSN, len(ws), ahead)
			for _, x := range ws {
				res.quarantine(x)
			}
		}
	}

	// Phase 7 — interrupted repair: the durable repair-in-progress mark
	// means an earlier degraded recovery died mid-rewrite. The page array
	// is then an arbitrary mix of repaired and crash-time versions —
	// individually checksum-valid and possibly undetectable by the LSN
	// phases (single-write pages rewritten out of log order fool
	// read-recompute redo tests) — so the conservative path is forced.
	if st.RepairPending() {
		res.detect("repair-interrupted", "a prior repair pass never finished; page array is mixed")
	}

	if res.Unrecoverable {
		return res, nil
	}

	if len(res.Detections) == 0 {
		// Fast path: both substrates verified clean, so the clean-crash
		// contract holds and the method's own recovery is trusted —
		// audited end-to-end by the invariant checker.
		r, err := core.RecoverDense(nil, Survivors(db))
		if err != nil {
			return nil, err
		}
		res.State = r.State
		checker, err := core.NewChecker(log, db.RecoveryBase())
		if err != nil {
			return nil, fmt.Errorf("method: building degraded-recovery checker: %w", err)
		}
		// The audit takes a second value (recovery consumed sv.State)
		// with verifyEnd off: end-state equality is the caller's oracle
		// check, against the determined state rather than this replay.
		av := Survivors(db)
		res.Audit = checker.Check(av.State, av.Log, av.Checkpoint, av.Redo, av.Analyze, false)
		return res, nil
	}

	// Conservative path: replay the whole surviving log from the
	// recovery base — the scan kernel run on different survivors: the
	// base for the state, no checkpoint, no analysis and an always-true
	// redo test, because the method's own may be poisoned by exactly the
	// faults just detected.
	res.Degraded = true
	rec.Inc(obs.MDegradedRuns)
	state := db.RecoveryBase()
	lsns := db.RecoveryBaseLSNs()
	_, _, err := core.Scan(rec, core.Survivors{State: state, Log: log, Redo: redoAll}, true, func(_ int, r *core.Record) (bool, error) {
		_, err := state.Apply(r.Op)
		for _, x := range r.Op.Writes() {
			lsns[x] = r.LSN
		}
		return false, err
	})
	if err != nil {
		return nil, fmt.Errorf("method: degraded replay: %w", err)
	}

	// Repair: rewrite every page from the replayed state with its true
	// LSN tag, resealing checksums. Log order is irrelevant here — the
	// final value per page is what replay determined — and writes land
	// unconditionally (faults were realized at crash time; disarm any
	// still pending so repair is not re-faulted).
	st.DisarmFaults()
	st.BeginRepair()
	repairs := 0
	for _, x := range state.Vars() {
		if opts.AbortAfterRepairs >= 0 && repairs >= opts.AbortAfterRepairs {
			res.Aborted = true
			return res, nil
		}
		st.Write(x, state.Get(x), lsns[x])
		repairs++
	}
	st.EndRepair()
	st.ClearGroupIntent()
	res.State = st.State()

	// Audit: after full replay every logged operation is installed; the
	// invariant checker verifies that complete set explains the repaired
	// state.
	checker, err := core.NewChecker(log, db.RecoveryBase())
	if err != nil {
		return nil, fmt.Errorf("method: building degraded-recovery checker: %w", err)
	}
	res.Audit = checker.CheckInstalled(res.State, log.Operations())
	return res, nil
}
