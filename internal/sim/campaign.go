package sim

import (
	"fmt"
	"sort"
	"sync"

	"redotheory/internal/fault"
	"redotheory/internal/method"
	"redotheory/internal/model"
	"redotheory/internal/workload"
)

// This file is the media-fault campaign: the robustness analogue of the
// crash matrix. Where Sweep asks "does clean-crash recovery work at
// every crash point", a campaign asks "when the stable state lies —
// torn groups, rotted pages and records, lost writes, torn log tails,
// crashes inside recovery itself — is the lie always caught". Every run
// is classified into one of the Outcome values; the headline assertion
// across the whole matrix is that SilentCorruption never appears: an
// injected fault either doesn't materialize, is repaired (exactly or
// degraded), or is explicitly reported as unrecoverable.

// Outcome classifies one faulted run.
type Outcome string

const (
	// RecoveredExact: recovery reproduced the full-log oracle with no
	// integrity detections (the fault never fired, or fired harmlessly —
	// a lost write above every installed floor is just an unflushed page).
	RecoveredExact Outcome = "recovered-exact"
	// RecoveredDegraded: corruption was detected and recovery produced
	// exactly the state the surviving validated log describes (possibly
	// minus a detectably-torn tail).
	RecoveredDegraded Outcome = "recovered-degraded"
	// DetectedUnrecoverable: corruption was detected and provably lost
	// committed work (orphan pages, records stranded past rot); recovery
	// refused to guess.
	DetectedUnrecoverable Outcome = "detected-unrecoverable"
	// SilentCorruption: the recovered state disagrees with the surviving
	// log's oracle, or the invariant audit failed, without a detection
	// explaining it. The campaign exists to prove this count is zero.
	SilentCorruption Outcome = "SILENT-CORRUPTION"
	// FaultNotFired: the armed fault found no opportunity (e.g. a torn
	// group in a run that never wrote a multi-page group).
	FaultNotFired Outcome = "fault-not-fired"
)

// FaultResult reports one faulted run.
type FaultResult struct {
	Method     string
	Kind       fault.Kind
	CrashAfter int
	Seed       int64
	Outcome    Outcome
	// Fired lists the fault events that actually happened.
	Fired []fault.Event
	// Detections aggregates integrity detections across every recovery
	// pass (a crash-in-recovery run has two).
	Detections []fault.Detection
	// Degraded is the final recovery pass's full report.
	Degraded *method.DegradedResult
}

// RunFaulted executes one run under an armed media-fault plan: the
// workload runs with the injector attached, the system crashes, the
// crash realizes the planned decay, and degraded recovery (re-run once
// if the plan crashes it mid-repair) produces the outcome.
func RunFaulted(mk Factory, cfg Config, plan fault.Plan) (*FaultResult, error) {
	if cfg.Initial == nil {
		cfg.Initial = model.NewState()
	}
	db := mk(cfg.Initial)
	db.SetRecorder(cfg.Recorder)
	inj := plan.New()
	db.Store().SetInjector(inj)
	if _, err := cfg.Sched.run(db, cfg.Ops, cfg.CrashAfter, nil); err != nil {
		return nil, err
	}
	db.Crash()

	// The full oracle: what the stable log promised before media decay.
	// Captured now because realization below may shorten the log.
	oracleFull, err := Determined(db)
	if err != nil {
		return nil, err
	}

	abortAfter := realizeAtCrash(db, inj)

	res := &FaultResult{
		Method:     db.Name(),
		Kind:       plan.Kind,
		CrashAfter: cfg.CrashAfter,
		Seed:       cfg.Sched.Seed,
	}

	if abortAfter >= 0 {
		first, err := method.RecoverDegraded(db, method.DegradedOptions{AbortAfterRepairs: abortAfter})
		if err != nil {
			return nil, fmt.Errorf("sim: %s: degraded recovery (pass 1): %w", db.Name(), err)
		}
		res.Detections = append(res.Detections, first.Detections...)
	}
	final, err := method.RecoverDegraded(db, method.RunToCompletion())
	if err != nil {
		return nil, fmt.Errorf("sim: %s: degraded recovery: %w", db.Name(), err)
	}
	res.Degraded = final
	res.Detections = append(res.Detections, final.Detections...)
	res.Fired = inj.Fired()

	// The repaired oracle: what the surviving validated log describes
	// after any truncation repair.
	oracleRepaired, err := Determined(db)
	if err != nil {
		return nil, err
	}

	res.Outcome = classify(final, res.Detections, inj.HasFired(), oracleFull, oracleRepaired)

	// Observed partitioned pass: clean substrates honor the clean-crash
	// contract, so the method's redo test is trustworthy and a parallel
	// recovery yields the decide/partition/replay/merge phase breakdown
	// and partition width histogram for the rollup. Faulted substrates
	// are skipped — their redo tests may be poisoned by the very damage
	// degraded recovery just detected.
	if cfg.Recorder != nil && !final.Unrecoverable && len(final.Detections) == 0 {
		if _, err := method.RecoverParallel(db, method.ParallelOptions{Workers: 2, Recorder: cfg.Recorder}); err != nil {
			return nil, fmt.Errorf("sim: %s: observed parallel recovery: %w", db.Name(), err)
		}
	}
	return res, nil
}

// realizeAtCrash applies the media decay a crash reveals for the armed
// fault kind, firing the corresponding events, and returns the repair
// count after which recovery should crash (−1: run to completion).
func realizeAtCrash(db method.DB, inj *fault.Injector) int {
	st := db.Store()
	w := db.WAL()
	rng := inj.Rng()
	abort := -1
	switch inj.Kind() {
	case fault.LostWrite:
		st.RealizeCrashFaults()
	case fault.PageBitRot:
		if ids := st.PageIDs(); len(ids) > 0 {
			id := ids[rng.Intn(len(ids))]
			st.CorruptPage(id)
			inj.Fire(fault.PageBitRot, fmt.Sprintf("page %q rotted on the medium", id))
		}
	case fault.LogTornTail:
		k := 1 + rng.Intn(2)
		if n := w.TearStableTail(k); n > 0 {
			inj.Fire(fault.LogTornTail, fmt.Sprintf("last %d stable log records torn away", n))
		}
	case fault.LogBitRot:
		if recs := db.StableLog().Records(); len(recs) > 0 {
			lsn := recs[rng.Intn(len(recs))].LSN
			if w.CorruptRecord(lsn) {
				inj.Fire(fault.LogBitRot, fmt.Sprintf("stable log record %d rotted", lsn))
			}
		}
	case fault.CrashInRecovery:
		// Tear the tail so there is repair work to crash in the middle of.
		if n := w.TearStableTail(1); n > 0 {
			abort = rng.Intn(4)
			inj.Fire(fault.CrashInRecovery, fmt.Sprintf("tail torn, then recovery crashed after %d repair writes", abort))
		}
	}
	st.DisarmFaults()
	return abort
}

// classify maps one run's evidence to its Outcome.
func classify(final *method.DegradedResult, detections []fault.Detection, fired bool, oracleFull, oracleRepaired *model.State) Outcome {
	if final.Unrecoverable {
		return DetectedUnrecoverable
	}
	auditOK := final.Audit != nil && final.Audit.OK
	if final.State == nil || !final.State.Equal(oracleRepaired) || !auditOK {
		return SilentCorruption
	}
	if len(detections) == 0 {
		if !fired {
			return FaultNotFired
		}
		if final.State.Equal(oracleFull) {
			return RecoveredExact
		}
		// Fired, undetected, and the full oracle was missed: the
		// definition of silent corruption.
		return SilentCorruption
	}
	return RecoveredDegraded
}

// NamedFactory pairs a method name with its factory.
type NamedFactory struct {
	Name string
	New  Factory
}

// CampaignConfig describes a fault-injection campaign: the cross product
// of methods × fault kinds × crash points × seeds.
type CampaignConfig struct {
	Methods []NamedFactory
	// Kinds defaults to fault.Kinds() (all of them).
	Kinds []fault.Kind
	// NumOps and NumPages size each run's workload (defaults 12 and 4).
	NumOps, NumPages int
	// CrashPoints defaults to {0, NumOps/2, NumOps}.
	CrashPoints []int
	// Seeds defaults to {1, 2, 3}.
	Seeds []int64
	// TruncateProb is forwarded to each run (checkpoint-driven log
	// truncation exercises the recovery-base floors).
	TruncateProb float64
	// Workers bounds the pool that executes runs concurrently. 0 or 1
	// runs sequentially. Results are identical to a sequential sweep
	// regardless of worker count: every run derives its randomness from
	// its own cell (method, seed, kind, crash point) and results are
	// returned in canonical sorted order either way.
	Workers int
	// Metrics, when non-nil, collects per-method telemetry rollups across
	// every cell: execution/WAL/cache counters, degraded-recovery
	// detections, and (on verified-clean cells) the full phase breakdown
	// and partition width histogram from an observed parallel recovery.
	Metrics *CampaignMetrics
}

// campaignCell is one point of the campaign matrix, fully determined
// before any run executes so scheduling order cannot leak into results.
type campaignCell struct {
	method NamedFactory
	ops    []*model.Op
	kind   fault.Kind
	crash  int
	seed   int64
}

func (c campaignCell) run(initial *model.State, truncateProb float64, metrics *CampaignMetrics) (*FaultResult, error) {
	runSeed, planSeed := cellSeeds(c.seed, c.method.Name, c.kind, c.crash)
	sched := DefaultSched(runSeed)
	sched.TruncateProb = truncateProb
	r, err := RunFaulted(c.method.New, Config{
		Ops:        c.ops,
		Initial:    initial,
		CrashAfter: c.crash,
		Sched:      sched,
		Recorder:   metrics.Recorder(c.method.Name),
	}, fault.Plan{Seed: planSeed, Kind: c.kind})
	if err != nil {
		return nil, fmt.Errorf("sim: campaign %s/%s/crash=%d/seed=%d: %w", c.method.Name, c.kind, c.crash, c.seed, err)
	}
	// Report the cell's grid seed, not the derived stream seed: canonical
	// ordering (sortResults) and human diffing key on the campaign grid.
	r.Seed = c.seed
	return r, nil
}

// Campaign sweeps the whole matrix and returns every run's result in
// canonical order (sortResults: method, fault kind, crash point, seed).
// With cfg.Workers > 1 the runs execute on a bounded worker pool; the
// returned results are byte-for-byte the same as a sequential sweep.
func Campaign(cfg CampaignConfig) ([]*FaultResult, error) {
	kinds := cfg.Kinds
	if len(kinds) == 0 {
		kinds = fault.Kinds()
	}
	numOps := cfg.NumOps
	if numOps == 0 {
		numOps = 12
	}
	numPages := cfg.NumPages
	if numPages == 0 {
		numPages = 4
	}
	points := cfg.CrashPoints
	if len(points) == 0 {
		points = []int{0, numOps / 2, numOps}
	}
	seeds := cfg.Seeds
	if len(seeds) == 0 {
		seeds = []int64{1, 2, 3}
	}

	pages := workload.Pages(numPages)
	initial := workload.InitialState(pages)

	// Materialize every cell first: workloads are generated once per
	// (method, seed) and shared read-only across that pair's runs.
	var cells []campaignCell
	for _, m := range cfg.Methods {
		for _, seed := range seeds {
			ops, err := workload.ForMethod(m.Name, numOps, pages, seed)
			if err != nil {
				return nil, fmt.Errorf("sim: campaign workload for %s: %w", m.Name, err)
			}
			for _, kind := range kinds {
				for _, crash := range points {
					cells = append(cells, campaignCell{method: m, ops: ops, kind: kind, crash: crash, seed: seed})
				}
			}
		}
	}

	out, err := runCells(len(cells), cfg.Workers, func(i int) (*FaultResult, error) {
		return cells[i].run(initial, cfg.TruncateProb, cfg.Metrics)
	})
	if err != nil {
		return nil, err
	}
	sortResults(out)
	return out, nil
}

// runCells runs run(i) for every cell index i in [0, n) on a pool of at
// most workers goroutines (one when workers ≤ 1) and returns the results
// in cell order, so completion order never reorders them. On failure it
// returns the error of the earliest failing cell — what a sequential
// sweep would have reported.
func runCells[T any](n, workers int, run func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < max(1, min(workers, n)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				out[i], errs[i] = run(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sortResults puts fault results into canonical order: method, fault
// kind, crash point, seed. Campaign output is already sorted; the
// function is exported so any aggregator can normalize results produced
// in completion order.
//
// The ordering is a documented invariant: the sort key (Method, Kind,
// CrashAfter, Seed) is exactly the campaign grid coordinate, so it is a
// *total* order over any one campaign's results — no two cells compare
// equal — and sorting is therefore a canonical form independent of
// completion order. The differential fuzzer (internal/fuzz) and any
// cross-run diffing rely on this: two result sets from the same grid can
// be compared element-wise after sortResults.
func sortResults(rs []*FaultResult) {
	sort.SliceStable(rs, func(i, j int) bool {
		a, b := rs[i], rs[j]
		if a.Method != b.Method {
			return a.Method < b.Method
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.CrashAfter != b.CrashAfter {
			return a.CrashAfter < b.CrashAfter
		}
		return a.Seed < b.Seed
	})
}

// CampaignSummary condenses a campaign.
type CampaignSummary struct {
	Runs      int
	ByOutcome map[Outcome]int
	// ByKind maps each fault kind to its outcome counts.
	ByKind map[fault.Kind]map[Outcome]int
	// ByMethod maps each method to its outcome counts.
	ByMethod map[string]map[Outcome]int
	// Silent is the headline number; the campaign's promise is zero.
	Silent int
}

// SummarizeCampaign folds campaign results; safe on an empty slice.
func SummarizeCampaign(rs []*FaultResult) CampaignSummary {
	s := CampaignSummary{
		ByOutcome: make(map[Outcome]int),
		ByKind:    make(map[fault.Kind]map[Outcome]int),
		ByMethod:  make(map[string]map[Outcome]int),
	}
	for _, r := range rs {
		s.Runs++
		s.ByOutcome[r.Outcome]++
		if s.ByKind[r.Kind] == nil {
			s.ByKind[r.Kind] = make(map[Outcome]int)
		}
		s.ByKind[r.Kind][r.Outcome]++
		if s.ByMethod[r.Method] == nil {
			s.ByMethod[r.Method] = make(map[Outcome]int)
		}
		s.ByMethod[r.Method][r.Outcome]++
	}
	s.Silent = s.ByOutcome[SilentCorruption]
	return s
}

// Methods returns the summary's method names in sorted order.
func (s CampaignSummary) Methods() []string {
	out := make([]string, 0, len(s.ByMethod))
	for m := range s.ByMethod {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}
