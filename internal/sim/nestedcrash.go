package sim

import (
	"fmt"
	"sort"
	"time"

	"redotheory/internal/fault"
	"redotheory/internal/model"
	"redotheory/internal/supervise"
	"redotheory/internal/workload"
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
// nested-crash schedules. A schedule is the supervisor's CrashPlan: entry
// k is how many operations recovery attempt k installs before it is
// crashed. The headline assertion across the matrix: every cell
// converges, matches the oracle, and never moves the install measure
// backwards.

// NestedCrashConfig describes the campaign grid.
type NestedCrashConfig struct {
	Methods []NamedFactory
	// NumOps and NumPages size each cell's workload (defaults 12 and 4).
	NumOps, NumPages int
	// Seeds defaults to {1, 2, 3}.
	Seeds []int64
	// CrashPoints are the crash-during-execution points (defaults
	// {NumOps/2, NumOps}: mid-run and end-of-run system crashes).
	CrashPoints []int
	// Schedules are the nested-crash schedules (defaults
	// defaultNestedSchedules()).
	Schedules [][]int
	// MaxAttempts bounds each cell's supervised attempt loop (default:
	// schedule length + 8, enough for the full ladder after the last
	// injected crash).
	MaxAttempts int
	// ProgressEvery is the supervisor's progress-checkpoint period K
	// (default 1: checkpoint after every install, the strictest setting,
	// which makes install progress strictly monotone for every
	// install-capable method — including physical, whose always-true
	// redo test advances only through the checkpoint bound).
	ProgressEvery int
	// Workers bounds the pool running cells concurrently (0 or 1:
	// sequential; results are canonical either way).
	Workers int
	// Metrics, when non-nil, collects per-method rollups including the
	// supervise.* attempt/backoff/ladder counters.
	Metrics *CampaignMetrics
}

// defaultNestedSchedules is the default crash-schedule axis: no crash,
// single crashes at increasing depths, and descending multi-crash
// storms (the worst case: each retry is killed earlier than the last).
func defaultNestedSchedules() [][]int {
	return [][]int{
		nil,
		{0},
		{1},
		{3},
		{1, 0},
		{2, 1, 0},
	}
}

// NestedCrashResult reports one cell of the campaign.
type NestedCrashResult struct {
	Method     string
	CrashAfter int
	Seed       int64
	// Sched is the background schedule the cell's execution ran under,
	// so a failing cell's repro re-creates its crash state exactly.
	Sched Sched
	// ScheduleIdx and Schedule identify the nested-crash schedule.
	ScheduleIdx int
	Schedule    []int
	// Converged, Rung, and the counters mirror the supervisor's result.
	Converged           bool
	Rung                supervise.Rung
	Attempts            int
	TotalInstalls       int
	ProgressCheckpoints int
	CrashesInjected     int
	Escalations         int
	// OracleMatch is whether the converged state equals the determined
	// state (stable log over the recovery base).
	OracleMatch bool
	// StrictlyMonotone is whether every attempt that installed work
	// strictly advanced the install measure (vacuously true for
	// non-installing methods).
	StrictlyMonotone bool
	// Err carries a supervisor harness error ("" when none).
	Err string
	// Ops is the cell's workload, retained so a failing cell can be
	// written out as a fuzz repro artifact.
	Ops []*model.Op
}

// OK reports whether the cell upheld the campaign's promise.
func (r *NestedCrashResult) OK() bool {
	return r.Err == "" && r.Converged && r.OracleMatch && r.StrictlyMonotone
}

// nestedCell is one fully-determined grid point.
type nestedCell struct {
	method      NamedFactory
	ops         []*model.Op
	crash       int
	seed        int64
	scheduleIdx int
	schedule    []int
}

// runNestedCell executes one cell: workload prefix, system crash,
// oracle capture, supervised recovery under the cell's crash schedule,
// and verdict extraction.
func runNestedCell(c nestedCell, cfg NestedCrashConfig, initial *model.State) (*NestedCrashResult, error) {
	out := &NestedCrashResult{
		Method:      c.method.Name,
		CrashAfter:  c.crash,
		Seed:        c.seed,
		Sched:       DefaultSched(MixSeed(c.seed, int64(fault.Sum(c.method.Name)), int64(c.crash), 5)),
		ScheduleIdx: c.scheduleIdx,
		Schedule:    c.schedule,
		Ops:         c.ops,
	}

	// Execute the workload prefix under the crash matrix's background
	// mix, then crash.
	db := c.method.New(initial)
	rec := cfg.Metrics.Recorder(c.method.Name)
	db.SetRecorder(rec)
	if _, err := out.Sched.run(db, c.ops, c.crash, nil); err != nil {
		return nil, err
	}
	db.Crash()

	// The oracle, captured before supervision because the supervised
	// installing passes mutate the stable state.
	oracle, err := Determined(db)
	if err != nil {
		return nil, err
	}

	maxAttempts := cfg.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = len(c.schedule) + 8
	}
	progressEvery := cfg.ProgressEvery
	if progressEvery == 0 {
		progressEvery = 1
	}
	res, err := supervise.Supervise(db, supervise.Options{
		MaxAttempts:   maxAttempts,
		ProgressEvery: progressEvery,
		Seed:          MixSeed(c.seed, int64(fault.Sum(c.method.Name)), int64(c.crash), int64(c.scheduleIdx), 6),
		Crashes:       supervise.CrashPlan{Points: c.schedule},
		Recorder:      rec,
		Sleep:         func(time.Duration) {}, // grid cells never wall-clock sleep
	})
	if err != nil {
		out.Err = err.Error()
		out.StrictlyMonotone = false
		return out, nil
	}

	out.Converged = res.Converged
	out.Rung = res.Rung
	out.Attempts = len(res.Attempts)
	out.TotalInstalls = res.TotalInstalls
	out.ProgressCheckpoints = res.ProgressCheckpoints
	out.CrashesInjected = res.CrashesInjected
	out.Escalations = res.Escalations
	out.OracleMatch = res.Converged && res.State != nil && res.State.Equal(oracle)

	// Strict monotonicity: with K=1 checkpoints every attempt that
	// installed work must strictly advance the install measure. The
	// degraded rung replays conservatively without the supervised
	// installing pass, so its attempts are held to non-regression only
	// (which Supervise itself already enforces).
	out.StrictlyMonotone = true
	if res.InstallCapable && progressEvery == 1 {
		last := -1
		for _, a := range res.Attempts {
			if a.Rung != supervise.RungDegraded && a.Installed > 0 && last >= 0 && a.Progress <= last {
				out.StrictlyMonotone = false
			}
			last = a.Progress
		}
	}
	return out, nil
}

// NestedCrashCampaign sweeps the grid and returns every cell's result in
// canonical order (method, crash point, seed, schedule index).
func NestedCrashCampaign(cfg NestedCrashConfig) ([]*NestedCrashResult, error) {
	numOps := cfg.NumOps
	if numOps == 0 {
		numOps = 12
	}
	numPages := cfg.NumPages
	if numPages == 0 {
		numPages = 4
	}
	seeds := cfg.Seeds
	if len(seeds) == 0 {
		seeds = []int64{1, 2, 3}
	}
	points := cfg.CrashPoints
	if len(points) == 0 {
		points = []int{numOps / 2, numOps}
	}
	schedules := cfg.Schedules
	if len(schedules) == 0 {
		schedules = defaultNestedSchedules()
	}

	pages := workload.Pages(numPages)
	initial := workload.InitialState(pages)

	var cells []nestedCell
	for _, m := range cfg.Methods {
		for _, seed := range seeds {
			ops, err := workload.ForMethod(m.Name, numOps, pages, seed)
			if err != nil {
				return nil, fmt.Errorf("sim: nested-crash workload for %s: %w", m.Name, err)
			}
			for _, crash := range points {
				for si, sched := range schedules {
					cells = append(cells, nestedCell{method: m, ops: ops, crash: crash, seed: seed, scheduleIdx: si, schedule: sched})
				}
			}
		}
	}

	out, err := runCells(len(cells), cfg.Workers, func(i int) (*NestedCrashResult, error) {
		return runNestedCell(cells[i], cfg, initial)
	})
	if err != nil {
		return nil, err
	}
	sortNestedResults(out)
	return out, nil
}

// sortNestedResults puts nested-crash results into canonical order:
// method, crash point, seed, schedule index — a total order over any one
// campaign's grid.
func sortNestedResults(rs []*NestedCrashResult) {
	sort.SliceStable(rs, func(i, j int) bool {
		a, b := rs[i], rs[j]
		if a.Method != b.Method {
			return a.Method < b.Method
		}
		if a.CrashAfter != b.CrashAfter {
			return a.CrashAfter < b.CrashAfter
		}
		if a.Seed != b.Seed {
			return a.Seed < b.Seed
		}
		return a.ScheduleIdx < b.ScheduleIdx
	})
}

// NestedCrashSummary condenses a nested-crash campaign.
type NestedCrashSummary struct {
	Runs      int
	Converged int
	// NonConverged, OracleMismatches, MonotoneViolations, and Errors are
	// the failure axes; the campaign's promise is all zero.
	NonConverged       int
	OracleMismatches   int
	MonotoneViolations int
	Errors             int
	// ByRung counts which ladder rung finished each converged cell.
	ByRung map[supervise.Rung]int
	// ByMethod maps each method to its OK / total cell counts.
	ByMethod map[string][2]int
	// TotalCrashes and TotalAttempts aggregate the injected-crash and
	// attempt counts across the grid.
	TotalCrashes  int
	TotalAttempts int
}

// SummarizeNestedCrash folds campaign results; safe on an empty slice.
func SummarizeNestedCrash(rs []*NestedCrashResult) NestedCrashSummary {
	s := NestedCrashSummary{
		ByRung:   make(map[supervise.Rung]int),
		ByMethod: make(map[string][2]int),
	}
	for _, r := range rs {
		s.Runs++
		s.TotalCrashes += r.CrashesInjected
		s.TotalAttempts += r.Attempts
		if r.Err != "" {
			s.Errors++
		}
		if r.Converged {
			s.Converged++
			s.ByRung[r.Rung]++
		} else {
			s.NonConverged++
		}
		if r.Converged && !r.OracleMatch {
			s.OracleMismatches++
		}
		if !r.StrictlyMonotone {
			s.MonotoneViolations++
		}
		m := s.ByMethod[r.Method]
		m[1]++
		if r.OK() {
			m[0]++
		}
		s.ByMethod[r.Method] = m
	}
	return s
}

// Methods returns the summary's method names in sorted order.
func (s NestedCrashSummary) Methods() []string {
	out := make([]string, 0, len(s.ByMethod))
	for m := range s.ByMethod {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}
