package sim

import (
	"fmt"
	"sort"

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

// FaultResult is the faulted leg's report.
type FaultResult struct {
	Outcome Outcome
	// Fired lists the fault events that actually happened.
	Fired []fault.Event
	// Detections aggregates integrity detections across every recovery
	// pass (a crash-in-recovery run has two).
	Detections []fault.Detection
	// Degraded is the final recovery pass's full report.
	Degraded *method.DegradedResult
}

// faulted runs the cell under its armed fault plan: the crash realizes
// the planned decay, and degraded recovery (re-run once if the plan
// crashes it mid-repair) produces the outcome, which must never be
// silent corruption. Without a plan it checks nothing.
func (p *probe) faulted() (string, string, error) {
	if err := p.crashed(); err != nil || p.inj == nil {
		return "", "", err
	}
	db := p.db
	abortAfter := realizeAtCrash(db, p.inj)

	res := &FaultResult{}
	if abortAfter >= 0 {
		first, err := method.RecoverDegraded(db, method.DegradedOptions{AbortAfterRepairs: abortAfter})
		if err != nil {
			return "", "", fmt.Errorf("sim: %s: degraded recovery (pass 1): %w", db.Name(), err)
		}
		res.Detections = append(res.Detections, first.Detections...)
	}
	final, err := method.RecoverDegraded(db, method.RunToCompletion())
	if err != nil {
		return "", "", fmt.Errorf("sim: %s: degraded recovery: %w", db.Name(), err)
	}
	res.Degraded = final
	res.Detections = append(res.Detections, final.Detections...)
	res.Fired = p.inj.Fired()

	// The full oracle is what the stable log promised before media decay
	// (captured at the crash); the repaired one is what the surviving
	// validated log describes after any truncation repair.
	repaired, err := Determined(db)
	if err != nil {
		return "", "", err
	}
	res.Outcome = classify(final, res.Detections, p.inj.HasFired(), p.oracle, repaired)
	p.res.Fault = res

	// Observed partitioned pass: clean substrates honor the clean-crash
	// contract, so the method's redo test is trustworthy and a parallel
	// recovery yields the decide/partition/replay/merge phase breakdown
	// and partition width histogram for the rollup. Faulted substrates
	// are skipped — their redo tests may be poisoned by the very damage
	// degraded recovery just detected.
	if rec := p.c.Recorder; rec != nil && !final.Unrecoverable && len(final.Detections) == 0 {
		if _, err := method.RecoverParallel(db, method.ParallelOptions{Workers: 2, Recorder: rec}); err != nil {
			return "", "", fmt.Errorf("sim: %s: observed parallel recovery: %w", db.Name(), err)
		}
	}
	if res.Outcome == SilentCorruption {
		return "fault-silent-corruption", fmt.Sprintf("kind %s, plan seed %d: %v", p.c.Fault.Kind, p.c.Fault.Seed, res.Detections), nil
	}
	return "", "", nil
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

// Grid is the cross product a campaign sweeps: every method × seed's
// workload of Ops operations over Pages pages, crashed at every point,
// run on a pool of Workers goroutines (sequentially at 0 or 1), with
// each method's cells sharing Metrics' recorder. Every cell derives its
// randomness from its own coordinates, so results come back in grid
// order and identical whatever the pool size.
type Grid struct {
	Methods     []NamedFactory
	Ops, Pages  int
	Seeds       []int64
	CrashPoints []int
	Workers     int
	Metrics     *CampaignMetrics
}

// cells lists the grid in order — method, seed, crash point, then each
// of n variants — generating each (method, seed) workload once and
// sharing it read-only; variant completes base cell v of a point.
func (g Grid) cells(n int, variant func(c *Cell, v int)) ([]Cell, error) {
	var out []Cell
	for _, m := range g.Methods {
		for _, seed := range g.Seeds {
			ops, err := workload.ForMethod(m.Name, g.Ops, workload.Pages(g.Pages), seed)
			if err != nil {
				return nil, fmt.Errorf("sim: workload for %s: %w", m.Name, err)
			}
			for _, crash := range g.CrashPoints {
				for v := 0; v < n; v++ {
					c := Cell{Method: m, Seed: seed, Pages: g.Pages, Ops: ops, Crash: crash, Recorder: g.Metrics.Recorder(m.Name)}
					variant(&c, v)
					out = append(out, c)
				}
			}
		}
	}
	return out, nil
}

// Campaign runs the faulted leg over the grid once per fault kind, with
// checkpoint-driven log truncation at truncateProb (it exercises the
// recovery-base floors): methods × seeds × crash points × kinds.
func Campaign(g Grid, kinds []fault.Kind, truncateProb float64) ([]*Result, error) {
	cells, err := g.cells(len(kinds), func(c *Cell, v int) {
		runSeed, planSeed := cellSeeds(c.Seed, c.Method.Name, kinds[v], c.Crash)
		c.Sched = DefaultSched(runSeed)
		c.Sched.TruncateProb = truncateProb
		c.Fault = &fault.Plan{Seed: planSeed, Kind: kinds[v]}
	})
	if err != nil {
		return nil, err
	}
	return runCells(cells, LegFaulted, g.Workers)
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

// SummarizeCampaign folds the faulted legs' reports; safe on an empty
// slice.
func SummarizeCampaign(rs []*Result) CampaignSummary {
	s := CampaignSummary{
		ByOutcome: make(map[Outcome]int),
		ByKind:    make(map[fault.Kind]map[Outcome]int),
		ByMethod:  make(map[string]map[Outcome]int),
	}
	for _, r := range rs {
		if r.Fault == nil {
			continue
		}
		o, kind, name := r.Fault.Outcome, r.Cell.Fault.Kind, r.Cell.Method.Name
		s.Runs++
		s.ByOutcome[o]++
		if s.ByKind[kind] == nil {
			s.ByKind[kind] = make(map[Outcome]int)
		}
		s.ByKind[kind][o]++
		if s.ByMethod[name] == nil {
			s.ByMethod[name] = make(map[Outcome]int)
		}
		s.ByMethod[name][o]++
	}
	s.Silent = s.ByOutcome[SilentCorruption]
	return s
}

// Methods returns the summary's method names in sorted order.
func (s CampaignSummary) Methods() []string { return sortedKeys(s.ByMethod) }

// sortedKeys is a map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
