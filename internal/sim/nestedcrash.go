package sim

import (
	"redotheory/internal/fault"
	"redotheory/internal/supervise"
)

// This file is the nested-crash campaign (the E-series experiment): the
// availability reading of Corollary 4 put under test at scale. Where the
// crash matrix crashes the *system* at every point and the fault
// campaign corrupts the *medium*, this campaign crashes the *recovery* —
// repeatedly, on a schedule — and asserts that the supervised restart
// loop (internal/supervise) always converges to the determined state
// with strictly monotone install progress and zero silent corruption.
//
// The grid is methods × workload seeds × crash-during-execution points ×
// nested-crash schedules, each cell run through the supervised leg. A
// schedule is the supervisor's CrashPlan: entry k is how many operations
// recovery attempt k installs before it is crashed.

// NestedSchedules is the campaign's crash-schedule axis: no crash,
// single crashes at increasing depths, and descending multi-crash
// storms (the worst case: each retry is killed earlier than the last).
var NestedSchedules = [][]int{nil, {0}, {1}, {3}, {1, 0}, {2, 1, 0}}

// NestedCrashCampaign runs the supervised leg over the grid once per
// crash schedule: methods × seeds × crash points × schedules. every is
// the supervisor's progress-checkpoint period K (1, a checkpoint after
// every install, makes install progress strictly monotone for every
// install-capable method, physical included) and maxAttempts its
// attempt budget per cell (0: schedule length + 8).
func NestedCrashCampaign(g Grid, schedules [][]int, every, maxAttempts int) ([]*Result, error) {
	cells, err := g.cells(len(schedules), func(c *Cell, v int) {
		// The crash matrix's background mix, seeded per cell.
		c.Sched = DefaultSched(MixSeed(c.Seed, int64(fault.Sum(c.Method.Name)), int64(c.Crash), 5))
		c.Nested = Nested{Crashes: schedules[v], Every: every, MaxAttempts: maxAttempts,
			Seed: MixSeed(c.Seed, int64(fault.Sum(c.Method.Name)), int64(c.Crash), int64(v), 6)}
	})
	if err != nil {
		return nil, err
	}
	return runCells(cells, LegSupervised, g.Workers)
}

// NestedTally is one method's nested-crash totals.
type NestedTally struct {
	Cells, OK                                                     int
	Crashes, Attempts, Installs, ProgressCheckpoints, Escalations int
}

// NestedCrashSummary condenses a nested-crash campaign.
type NestedCrashSummary struct {
	Runs      int
	Converged int
	// NonConverged, OracleMismatches, MonotoneViolations and Errors count
	// the cells whose supervised leg dissented on that check; the
	// campaign's promise is all zero.
	NonConverged       int
	OracleMismatches   int
	MonotoneViolations int
	Errors             int
	// ByRung counts which ladder rung finished each converged cell.
	ByRung map[supervise.Rung]int
	// ByMethod holds each method's totals.
	ByMethod map[string]*NestedTally
	// TotalCrashes and TotalAttempts aggregate the injected-crash and
	// attempt counts across the grid.
	TotalCrashes  int
	TotalAttempts int
}

// SummarizeNestedCrash folds the supervised legs' reports; safe on an
// empty slice.
func SummarizeNestedCrash(rs []*Result) NestedCrashSummary {
	s := NestedCrashSummary{
		ByRung:   make(map[supervise.Rung]int),
		ByMethod: make(map[string]*NestedTally),
	}
	for _, r := range rs {
		t := s.ByMethod[r.Cell.Method.Name]
		if t == nil {
			t = &NestedTally{}
			s.ByMethod[r.Cell.Method.Name] = t
		}
		s.Runs++
		t.Cells++
		if r.OK() {
			t.OK++
		}
		switch r.Check {
		case "supervised-error":
			s.Errors++
		case "supervised-nonconvergence":
			s.NonConverged++
		case "supervised-oracle":
			s.OracleMismatches++
		case "supervised-monotonicity":
			s.MonotoneViolations++
		}
		sup := r.Supervised
		if sup == nil {
			continue
		}
		if sup.Converged {
			s.Converged++
			s.ByRung[sup.Rung]++
		}
		s.TotalCrashes += sup.CrashesInjected
		s.TotalAttempts += len(sup.Attempts)
		t.Crashes += sup.CrashesInjected
		t.Attempts += len(sup.Attempts)
		t.Installs += sup.TotalInstalls
		t.ProgressCheckpoints += sup.ProgressCheckpoints
		t.Escalations += sup.Escalations
	}
	return s
}

// Methods returns the summary's method names in sorted order.
func (s NestedCrashSummary) Methods() []string { return sortedKeys(s.ByMethod) }
