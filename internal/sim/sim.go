// Package sim drives crash/recovery simulations: it runs a workload
// through a recovery method with a randomized schedule of background
// flushes, log forces, and checkpoints; crashes at a chosen point; audits
// the Recovery Invariant over the survivors with the core checker; runs
// the abstract recovery procedure; and verifies the recovered state
// against the oracle (the stable log's operations applied in order).
// This is the harness behind the Section 6 crash-matrix experiment (E9)
// and the WAL fault-injection demonstration.
package sim

import (
	"fmt"
	"sort"
	"time"

	"redotheory/internal/core"
	"redotheory/internal/method"
	"redotheory/internal/model"
	"redotheory/internal/obs"
)

// Factory builds a fresh DB under some method from an initial state.
type Factory func(*model.State) method.DB

// Config describes one simulation run.
type Config struct {
	// Ops is the workload, executed in order.
	Ops []*model.Op
	// Initial is the initial stable state.
	Initial *model.State
	// CrashAfter crashes the system after that many operations have
	// executed (0 = immediately, len(Ops) = after all).
	CrashAfter int
	// Sched is the background schedule (flushes, forces, checkpoints,
	// truncations), its probabilities taken literally; DefaultSched(seed)
	// is the crash matrix's mix.
	Sched Sched
	// DisableWAL injects the write-ahead-log fault.
	DisableWAL bool
	// SkipChecker skips the invariant audit (for pure throughput
	// benchmarks).
	SkipChecker bool
	// OnlineAudit attaches a core.Auditor that follows the execution live
	// (one Logged call per operation, PageInstalled on every flush) and
	// audits the invariant both continuously and at the crash. Only valid
	// for methods that log exactly one record per operation through the
	// cache (the page-LSN family); the caller is responsible for the
	// match.
	OnlineAudit bool
	// ParallelWorkers, when positive, additionally runs partitioned
	// parallel recovery (method.RecoverParallel) with that many workers
	// and records whether it reproduced the sequential outcome.
	ParallelWorkers int
	// Recorder, when non-nil, is attached to the DB for the whole run
	// (exec/flush/checkpoint/WAL counters) and threaded through recovery
	// (phase spans, redo verdicts). Recorders are race-clean, so one may
	// be shared across concurrent runs to aggregate a sweep.
	Recorder *obs.Recorder
}

// Result reports one simulation run.
type Result struct {
	Method string
	// Recovered is true when the recovered state equals the oracle.
	Recovered bool
	// InvariantOK is the checker's verdict on the crash state (true when
	// SkipChecker was set and the recovery outcome was correct).
	InvariantOK bool
	// Violations lists the checker's findings.
	Violations []core.Violation
	// StableOps is how many operations survived in the stable log.
	StableOps int
	// Replayed is how many operations recovery redid.
	Replayed int
	// Examined is how many log records recovery examined.
	Examined int
	// Stats carries the method's counters at crash time.
	Stats method.Stats
	// RecoverErr is non-nil if the recovery procedure itself failed.
	RecoverErr error
	// OnlineOK is the live auditor's verdict at the crash (true when
	// OnlineAudit was off).
	OnlineOK bool
	// TruncatedRecords counts log records dropped by truncation.
	TruncatedRecords int
	// OnlineAudits counts the live audits performed.
	OnlineAudits int
	// ParallelAgrees is the parallel-recovery cross-check verdict: the
	// partitioned replay produced the sequential outcome (true when
	// ParallelWorkers was off).
	ParallelAgrees bool
	// ParallelComponents is how many independent components the admitted
	// records form (ParallelResult.Plan; 0 when ParallelWorkers was off).
	ParallelComponents int
	// Wall is the wall-clock duration of the sequential recovery pass.
	Wall time.Duration
}

// onlineAuditStep is Run's step under the live auditor: a crash after
// any operation must leave an explainable stable state, so it audits the
// store after each one. A failed audit clears *ok.
func onlineAuditStep(db method.DB, auditor *core.Auditor, ops []*model.Op, ok *bool) func(i int) error {
	return func(i int) error {
		if _, err := auditor.Logged(ops[i]); err != nil {
			return fmt.Errorf("sim: online auditor: %w", err)
		}
		if rep := auditor.Audit(db.StableState()); !rep.OK {
			*ok = false
		}
		return nil
	}
}

// Run executes one simulation.
func Run(mk Factory, cfg Config) (*Result, error) {
	if cfg.Initial == nil {
		cfg.Initial = model.NewState()
	}
	db := mk(cfg.Initial)
	db.SetRecorder(cfg.Recorder)
	if cfg.DisableWAL {
		db.DisableWAL()
	}
	var auditor *core.Auditor
	var step func(i int) error
	onlineOK := true
	if cfg.OnlineAudit {
		auditor = core.NewAuditor(cfg.Initial)
		db.SetInstallHook(auditor.PageInstalled)
		step = onlineAuditStep(db, auditor, cfg.Ops, &onlineOK)
	}
	truncated, err := cfg.Sched.run(db, cfg.Ops, cfg.CrashAfter, step)
	if err != nil {
		return nil, err
	}
	stats := db.Stats()
	db.Crash()

	res := &Result{Method: db.Name(), Stats: stats, OnlineOK: onlineOK, TruncatedRecords: truncated}
	if auditor != nil {
		res.OnlineAudits = auditor.Audits
	}
	sv := method.Survivors(db)
	res.StableOps = sv.Log.Len()

	oracle, err := Determined(db)
	if err != nil {
		return nil, err
	}

	// Invariant audit at the crash point.
	if !cfg.SkipChecker {
		checker, err := core.NewChecker(sv.Log, db.RecoveryBase())
		if err != nil {
			return nil, fmt.Errorf("sim: building checker: %w", err)
		}
		rep := checker.Check(sv.State, sv.Log, sv.Checkpoint, sv.Redo, sv.Analyze, false)
		res.InvariantOK = rep.OK
		res.Violations = rep.Violations
	}

	// Recovery and verification.
	start := time.Now()
	rec, err := method.RecoverObserved(db, cfg.Recorder)
	res.Wall = time.Since(start)
	if err != nil {
		res.RecoverErr = err
		return res, nil
	}
	res.Replayed = len(rec.Replayed)
	res.Examined = rec.Examined
	res.Recovered = rec.State.Equal(oracle)
	if cfg.SkipChecker {
		res.InvariantOK = res.Recovered
	}

	// Parallel cross-check: partitioned replay must reproduce the
	// sequential outcome bit for bit.
	res.ParallelAgrees = true
	if cfg.ParallelWorkers > 0 {
		par, err := method.RecoverParallel(db, method.ParallelOptions{Workers: cfg.ParallelWorkers})
		if err != nil {
			res.ParallelAgrees = false
			res.RecoverErr = fmt.Errorf("sim: parallel recovery: %w", err)
			return res, nil
		}
		res.ParallelComponents = par.Plan().Components
		if err := par.SameOutcome(rec); err != nil {
			res.ParallelAgrees = false
		}
	}
	return res, nil
}

// Sweep runs a simulation at every crash point from 0 to len(ops) under
// DefaultSched(seed + crash) and returns the per-point results: the
// crash-matrix row for one method and one workload. With workers > 0
// every run also cross-checks partitioned parallel recovery
// (Config.ParallelWorkers); rec, when non-nil, is attached to every run
// and accumulates execution counters, phase spans and the partition
// width histogram across the sweep.
func Sweep(mk Factory, ops []*model.Op, initial *model.State, seed int64, workers int, rec *obs.Recorder) ([]*Result, error) {
	out := make([]*Result, 0, len(ops)+1)
	for crash := 0; crash <= len(ops); crash++ {
		r, err := Run(mk, Config{Ops: ops, Initial: initial, CrashAfter: crash, Sched: DefaultSched(seed + int64(crash)), ParallelWorkers: workers, Recorder: rec})
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Summary condenses a sweep.
type Summary struct {
	Method      string
	Runs        int
	Recovered   int
	InvariantOK int
	Replayed    int
	Examined    int
	// ParallelOK counts runs whose parallel-recovery cross-check agreed
	// with sequential recovery (equal to Runs when the check was off).
	ParallelOK int
	// ReplayedP50 and ReplayedP99 are per-run replay-count percentiles
	// across the sweep (0 for an empty sweep).
	ReplayedP50 int
	ReplayedP99 int
	// Wall is the summed wall-clock time of the sequential recovery
	// passes; WallP50/WallP99 are the per-run percentiles.
	Wall    time.Duration
	WallP50 time.Duration
	WallP99 time.Duration
}

// Summarize folds sweep results.
func Summarize(rs []*Result) Summary {
	var s Summary
	replayed := make([]int64, 0, len(rs))
	walls := make([]int64, 0, len(rs))
	for _, r := range rs {
		s.Method = r.Method
		s.Runs++
		if r.Recovered {
			s.Recovered++
		}
		if r.InvariantOK {
			s.InvariantOK++
		}
		if r.ParallelAgrees {
			s.ParallelOK++
		}
		s.Replayed += r.Replayed
		s.Examined += r.Examined
		s.Wall += r.Wall
		replayed = append(replayed, int64(r.Replayed))
		walls = append(walls, int64(r.Wall))
	}
	s.ReplayedP50 = int(percentileInt64(replayed, 50))
	s.ReplayedP99 = int(percentileInt64(replayed, 99))
	s.WallP50 = time.Duration(percentileInt64(walls, 50))
	s.WallP99 = time.Duration(percentileInt64(walls, 99))
	return s
}

// percentileInt64 is the nearest-rank percentile of vs, 0 when empty —
// guarded the same way rate guards an empty denominator.
func percentileInt64(vs []int64, p int) int64 {
	if len(vs) == 0 {
		return 0
	}
	sorted := make([]int64, len(vs))
	copy(sorted, vs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := (len(sorted)*p + 99) / 100
	if idx < 1 {
		idx = 1
	}
	if idx > len(sorted) {
		idx = len(sorted)
	}
	return sorted[idx-1]
}

// rate divides num by den, returning 0 for an empty denominator so an
// empty sweep summarizes without panicking.
func rate(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// RedoSelectivity is the fraction of examined records actually replayed.
func (s Summary) RedoSelectivity() float64 { return rate(s.Replayed, s.Examined) }
