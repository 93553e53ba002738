// Package fuzz is the differential crash-point fuzzer: it generates
// randomized operation histories per method (workload shapes × schedule
// profiles), enumerates their crash points, and runs every clean leg of
// sim's oracle table on each cell — the invariant checker, the state
// graph's determined state, sequential, parallel, degraded, served,
// sharded and supervised recovery must all agree with the determined
// state the surviving log defines (Theorem 3) — plus, in Faults mode,
// the faulted leg once per history and fault kind. Any disagreement is
// a bug in one of the recovery paths; the shrinker then minimizes the
// failing cell with delta debugging and emits a self-contained repro
// artifact, the one artifact every grid writes and redofuzz -repro
// replays.
//
// Soundness of the oracle rests on the paper's results: on a clean crash
// the stable log is a prefix of the executed history whose order is
// consistent with the conflict order, so sequential replay from the
// recovery base reaches exactly the determined state (Lemma 1,
// Theorem 3); partitioned replay must reproduce it bit for bit
// (components are conflict-closed); and degraded recovery on undamaged
// substrates must take its fast path and land on the same state.
package fuzz

import (
	"fmt"
	"sort"
	"time"

	"redotheory/internal/fault"
	"redotheory/internal/model"
	"redotheory/internal/obs"
	"redotheory/internal/sim"
	"redotheory/internal/workload"
)

// Coverage counter and sample names recorded on Config.Recorder.
const (
	MCells         = "fuzz.cells"            // clean oracle cells checked
	MFaultCells    = "fuzz.fault_cells"      // faulted campaign cells checked
	MShardCells    = "fuzz.shard_cells"      // sharded differential cells checked
	MHistories     = "fuzz.histories"        // distinct histories generated
	MDisagreements = "fuzz.disagreements"    // oracle disagreements found
	MRedoSize      = "fuzz.redo_size"        // sample: redo-set size per cell
	MComponents    = "fuzz.components"       // sample: partition components per cell
	GShapes        = "fuzz.partition_shapes" // gauge: distinct partition signatures
)

// Failure is one oracle disagreement.
type Failure struct {
	// Cell is the original failing cell.
	Cell sim.Cell
	// Check names the oracle check that disagreed (e.g. "sequential-oracle",
	// "parallel-divergence", "degraded-state", "invariant").
	Check string
	// Detail explains the disagreement.
	Detail string
	// Minimized is the shrunk cell (nil when shrinking was off).
	Minimized *sim.Cell
	// Artifact is the self-contained repro (built from Minimized when
	// present, else from Cell).
	Artifact *Artifact
}

// Config configures a fuzzing run.
type Config struct {
	// Methods defaults to sim.DefaultMethods() (all seven).
	Methods []sim.NamedFactory
	// Seeds is how many top-level seeds to fuzz (default 1).
	Seeds int
	// Histories is how many histories to generate per method × shape ×
	// seed (default 1).
	Histories int
	// MaxOps is the history length (default 12).
	MaxOps int
	// Pages is the page-set size (default 4).
	Pages int
	// Budget bounds the wall-clock time; 0 means no bound. When the
	// budget expires the run stops cleanly and the report is marked
	// truncated.
	Budget time.Duration
	// Shrink minimizes failing cells before reporting them.
	Shrink bool
	// Workers is the parallel-recovery pool size (default 3).
	Workers int
	// Faults additionally runs one faulted campaign cell per history and
	// fault kind, asserting the outcome is never silent corruption.
	Faults bool
	// Recorder receives coverage counters and recovery telemetry
	// (nil disables).
	Recorder *obs.Recorder

	// failCheck, when set, is consulted as an extra oracle leg on every
	// cell: a non-empty return is treated as a disagreement with that
	// detail. It exists only so package tests can inject a synthetic
	// oracle bug and prove the shrinker minimizes it; being unexported it
	// cannot be set from outside the package.
	failCheck func(ops []*model.Op, crash int) string
}

func (cfg *Config) withDefaults() Config {
	out := *cfg
	if len(out.Methods) == 0 {
		out.Methods = sim.DefaultMethods()
	}
	if out.Seeds <= 0 {
		out.Seeds = 1
	}
	if out.Histories <= 0 {
		out.Histories = 1
	}
	if out.MaxOps <= 0 {
		out.MaxOps = 12
	}
	if out.Pages <= 0 {
		out.Pages = 4
	}
	if out.Workers <= 0 {
		out.Workers = 3
	}
	return out
}

// Report summarizes a fuzzing run.
type Report struct {
	// Cells is how many clean oracle cells were checked.
	Cells int
	// FaultCells is how many faulted campaign cells were checked.
	FaultCells int
	// Histories is how many distinct histories were generated.
	Histories int
	// Failures lists every oracle disagreement, in discovery order.
	Failures []*Failure
	// PartitionShapes lists the distinct partition signatures
	// (ops/components/largest) observed across parallel recoveries,
	// sorted — the parallelism-structure coverage metric.
	PartitionShapes []string
	// RedoSizes counts distinct redo-set sizes observed.
	RedoSizes int
	// FaultKinds lists the fault kinds exercised (Faults mode), sorted.
	FaultKinds []string
	// Truncated is true when the budget expired before the grid was
	// exhausted.
	Truncated bool
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
}

// scheduleProfiles are the background-activity mixes cycled across
// histories: the sim default, an aggressive-steal profile, a
// force-heavy/rarely-checkpoint profile, and a flush-heavy profile with
// truncation after every checkpoint.
var scheduleProfiles = []sim.Sched{
	{FlushProb: 0.3, ForceProb: 0.2, CheckpointProb: 0.1, TruncateProb: 0.2},
	{FlushProb: 0.6, ForceProb: 0.5, CheckpointProb: 0.3, TruncateProb: 0.5},
	{FlushProb: 0.05, ForceProb: 0.9, CheckpointProb: 0.02, TruncateProb: 0},
	{FlushProb: 0.9, ForceProb: 0.05, CheckpointProb: 0.25, TruncateProb: 1},
}

// nestedProfiles are the crash-during-recovery schedules cycled across
// cells for the supervised-recovery oracle leg: no nested crash, a crash
// before the first install, one after a single install, and a descending
// two-crash storm.
var nestedProfiles = [][]int{
	nil,
	{0},
	{1},
	{2, 0},
}

// Run executes the fuzzing grid: methods × shapes × seeds × histories ×
// crash points, each cell run through every clean leg, plus (in Faults
// mode) one faulted cell per history and fault kind. It returns a
// report; oracle disagreements are collected, not fatal. Errors are
// reserved for harness breakage (a workload illegal for its method, an
// unknown shape).
func Run(cfg Config) (*Report, error) {
	c := cfg.withDefaults()
	rec := c.Recorder
	start := time.Now()
	rep := &Report{}
	shapes := make(map[string]bool)
	redoSizes := make(map[int]bool)
	faultKinds := make(map[string]bool)

	expired := func() bool {
		return c.Budget > 0 && time.Since(start) > c.Budget
	}
	failed := func(cell sim.Cell, legs sim.Legs, res *sim.Result, flight *obs.FlightDump) {
		rep.Failures = append(rep.Failures, c.fail(cell, legs, res, flight))
		rec.Inc(MDisagreements)
	}

grid:
	for seed := int64(1); seed <= int64(c.Seeds); seed++ {
		for _, m := range c.Methods {
			shapeList, err := workload.ShapesFor(m.Name)
			if err != nil {
				return nil, fmt.Errorf("fuzz: %w", err)
			}
			for _, shape := range shapeList {
				for h := 0; h < c.Histories; h++ {
					if expired() {
						rep.Truncated = true
						break grid
					}
					histSeed := sim.MixSeed(seed, int64(fault.Sum(m.Name)), int64(fault.Sum(shape.Name)), int64(h), 3)
					hist := sim.Cell{Method: m, Shape: shape.Name, Seed: histSeed, Pages: c.Pages,
						Ops: shape.Gen(c.MaxOps, workload.Pages(c.Pages), histSeed), Workers: c.Workers}
					rep.Histories++
					rec.Inc(MHistories)
					profile := scheduleProfiles[(int(seed)+h)%len(scheduleProfiles)]
					for crash := 0; crash <= len(hist.Ops); crash++ {
						if expired() {
							rep.Truncated = true
							break grid
						}
						cell := hist
						cell.Crash = crash
						cell.Sched = profile
						cell.Sched.Seed = sim.MixSeed(histSeed, int64(crash), 4)
						cell.Nested = sim.Nested{Crashes: nestedProfiles[(int(seed)+h+crash)%len(nestedProfiles)], Every: 2, Seed: cell.Sched.Seed}
						cell.Recorder = rec
						res, flight, err := check(cell, sim.CleanLegs, c.failCheck)
						if err != nil {
							return nil, err
						}
						rep.Cells++
						rec.Inc(MCells)
						if res.ParallelAgrees {
							shapes[res.Plan.Signature()] = true
							redoSizes[res.Replayed] = true
							rec.Observe(MRedoSize, int64(res.Replayed))
							rec.Observe(MComponents, int64(res.Plan.Components))
						}
						if !res.OK() {
							failed(cell, sim.CleanLegs, res, flight)
						}
					}
					if !c.Faults {
						continue
					}
					for _, kind := range fault.Kinds() {
						cell := faultCell(hist, profile, kind)
						res, err := sim.Run(cell, sim.LegFaulted)
						if err != nil {
							return nil, fmt.Errorf("fuzz: faulted cell %s/%s: %w", m.Name, kind, err)
						}
						rep.FaultCells++
						rec.Inc(MFaultCells)
						faultKinds[string(kind)] = true
						if !res.OK() {
							failed(cell, sim.LegFaulted, res, nil)
						}
					}
				}
			}
		}
	}

	rep.PartitionShapes = sortedKeys(shapes)
	rep.RedoSizes = len(redoSizes)
	rep.FaultKinds = sortedKeys(faultKinds)
	rec.SetGauge(GShapes, int64(len(rep.PartitionShapes)))
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// check runs the cell's legs under a flight recorder: a bounded event
// ring attached as the recorder's sink (created, with a recorder, when
// the cell has none) for the cell's duration. On a disagreement the ring
// is dumped, so repro artifacts carry the telemetry leading into the
// failure — including the crash snapshots the supervised leg preserved.
// A recorder that is already sinking keeps its own stream and no flight
// is captured. failCheck, the test-only planted oracle bug, is consulted
// before any leg runs.
func check(c sim.Cell, legs sim.Legs, failCheck func(ops []*model.Op, crash int) string) (*sim.Result, *obs.FlightDump, error) {
	if c.Recorder == nil {
		c.Recorder = obs.New()
	}
	rec := c.Recorder
	var flight *obs.FlightRecorder
	if !rec.Sinking() {
		flight = obs.NewFlightRecorder(512)
		rec.SetSink(flight)
		defer rec.SetSink(nil)
	}
	res := &sim.Result{Cell: c, Legs: legs}
	if failCheck != nil {
		res.Detail = failCheck(c.Ops, c.Crash)
	}
	if res.Detail != "" {
		res.Check = "injected"
	} else {
		var err error
		if res, err = sim.Run(c, legs); err != nil {
			return nil, nil, err
		}
	}
	if res.Sharded != nil {
		rec.Inc(MShardCells)
	}
	if res.OK() || flight == nil {
		return res, nil, nil
	}
	// Stamp the verdict into the ring before dumping, so even a
	// disagreement raised ahead of any instrumented activity leaves a
	// non-empty flight dump naming the failed check.
	rec.Emit(obs.Event{Type: obs.EvDetection, Detail: res.Check + ": " + res.Detail})
	return res, flight.Dump(), nil
}

// fail packages a disagreement, shrinking it first when configured.
func (c *Config) fail(cell sim.Cell, legs sim.Legs, res *sim.Result, flight *obs.FlightDump) *Failure {
	f := &Failure{Cell: cell, Check: res.Check, Detail: res.Detail}
	art := cell
	if c.Shrink {
		if min := Shrink(cell, legs, c.failCheck); min != nil {
			f.Minimized = min
			art = *min
			// The artifact's flight dump must describe the cell the
			// artifact reproduces: re-run the minimized cell once to
			// capture its telemetry (falling back to the original cell's
			// dump if the re-run surprises us).
			if _, mflight, err := check(*min, legs, c.failCheck); err == nil && mflight != nil {
				flight = mflight
			}
		}
	}
	f.Artifact = NewArtifact(art, legs, res.Check, res.Detail)
	f.Artifact.Flight = flight
	return f
}

// faultCell is the faulted cell of a history for one fault kind:
// crashed halfway, under the history's schedule profile seeded from the
// plan seed.
func faultCell(hist sim.Cell, profile sim.Sched, kind fault.Kind) sim.Cell {
	planSeed := sim.MixSeed(hist.Seed, int64(fault.Sum(string(kind))), 5)
	c := hist
	c.Crash = len(hist.Ops) / 2
	c.Sched = profile
	c.Sched.Seed = sim.MixSeed(planSeed, 6)
	c.Fault = &fault.Plan{Seed: planSeed, Kind: kind}
	return c
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
