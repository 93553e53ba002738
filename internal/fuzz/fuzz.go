// Package fuzz is the differential crash-point fuzzer: it generates
// randomized operation histories per method, enumerates crash points and
// cache-steal/flush schedules, and checks a three-way recovery oracle on
// every cell — the sequential abstract procedure, partitioned parallel
// recovery, and degraded (media-fault-tolerant) recovery must all agree,
// and the outcome must be the determined state the surviving log's
// conflict graph defines (Theorem 3). Any disagreement is a bug in one
// of the recovery paths; the shrinker then minimizes the failing history
// with delta debugging and emits a self-contained repro artifact.
//
// Soundness of the oracle rests on the paper's results: on a clean crash
// the stable log is a prefix of the executed history whose order is
// consistent with the conflict order, so sequential replay from the
// recovery base reaches exactly the determined state (Lemma 1,
// Theorem 3); partitioned replay must reproduce it bit for bit
// (components are conflict-closed); and degraded recovery on undamaged
// substrates must take its fast path and land on the same state. The
// fuzzer checks all pairwise agreements plus the invariant checker's
// explainability verdict, so a violation pinpoints which leg diverged.
package fuzz

import (
	"fmt"
	"sort"
	"time"

	"redotheory/internal/fault"
	"redotheory/internal/method"
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

// History is one generated operation history bound to a method.
type History struct {
	// Method names the recovery method the history is legal for.
	Method string
	// Shape names the workload generator variant that produced it.
	Shape string
	// Seed is the workload generation seed.
	Seed int64
	// Pages is the page-set size the history runs over.
	Pages int
	// Ops is the history itself. Every op is a model.ReadWrite op, so it
	// is fully reconstructible from (ID, Name, Reads, Writes).
	Ops []*model.Op
}

// Cell is one fuzz cell: a history crashed at a point under a schedule.
type Cell struct {
	History  History
	Crash    int
	Schedule sim.Sched
	// Workers is the parallel-recovery pool size.
	Workers int
	// NestedCrash is the supervised-recovery leg's crash schedule: entry
	// k is how many operations recovery attempt k installs before it is
	// crashed again (nil/empty: recovery runs unmolested).
	NestedCrash []int
}

// String renders the cell coordinate for reports.
func (c *Cell) String() string {
	return fmt.Sprintf("%s/%s seed=%d ops=%d crash=%d sched=%d nested=%v",
		c.History.Method, c.History.Shape, c.History.Seed, len(c.History.Ops), c.Crash, c.Schedule.Seed, c.NestedCrash)
}

// Failure is one oracle disagreement.
type Failure struct {
	// Cell is the original failing cell.
	Cell Cell
	// Check names the oracle leg that disagreed (e.g. "sequential-oracle",
	// "parallel-divergence", "degraded-state", "invariant").
	Check string
	// Detail explains the disagreement.
	Detail string
	// Minimized is the shrunk cell (nil when shrinking was off).
	Minimized *Cell
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
// crash points, plus (in Faults mode) one faulted cell per history and
// fault kind. It returns a report; oracle disagreements are collected,
// not fatal. Errors are reserved for harness breakage (a workload
// illegal for its method, an unknown shape).
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
					hist := History{
						Method: m.Name,
						Shape:  shape.Name,
						Seed:   histSeed,
						Pages:  c.Pages,
						Ops:    shape.Gen(c.MaxOps, workload.Pages(c.Pages), histSeed),
					}
					rep.Histories++
					rec.Inc(MHistories)
					profile := scheduleProfiles[(int(seed)+h)%len(scheduleProfiles)]
					for crash := 0; crash <= len(hist.Ops); crash++ {
						if expired() {
							rep.Truncated = true
							break grid
						}
						sched := profile
						sched.Seed = sim.MixSeed(histSeed, int64(crash), 4)
						cell := Cell{History: hist, Crash: crash, Schedule: sched, Workers: c.Workers,
							NestedCrash: nestedProfiles[(int(seed)+h+crash)%len(nestedProfiles)]}
						dis, cov, err := checkCell(m, cell, rec, c.failCheck)
						if err != nil {
							return nil, err
						}
						rep.Cells++
						rec.Inc(MCells)
						if cov != nil {
							shapes[cov.partSig] = true
							redoSizes[cov.replayed] = true
							rec.Observe(MRedoSize, int64(cov.replayed))
							rec.Observe(MComponents, int64(cov.components))
						}
						if dis != nil {
							rep.Failures = append(rep.Failures, c.fail(m, cell, dis))
							rec.Inc(MDisagreements)
						}
					}
					if c.Faults {
						if err := runFaultCells(m, hist, profile, rep, rec, faultKinds); err != nil {
							return nil, err
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

// fail packages a disagreement, shrinking it first when configured.
func (c *Config) fail(m sim.NamedFactory, cell Cell, dis *disagreement) *Failure {
	f := &Failure{Cell: cell, Check: dis.check, Detail: dis.detail}
	art := cell
	flight := dis.flight
	if c.Shrink {
		if min := Shrink(m, cell, c.failCheck); min != nil {
			f.Minimized = min
			art = *min
			// The artifact's flight dump must describe the cell the
			// artifact reproduces: re-run the minimized cell once to
			// capture its telemetry (falling back to the original cell's
			// dump if the re-run surprises us).
			if mdis, _, err := checkCell(m, *min, nil, c.failCheck); err == nil && mdis != nil && mdis.flight != nil {
				flight = mdis.flight
			}
		}
	}
	f.Artifact = NewArtifact(art, dis.check, dis.detail)
	f.Artifact.Flight = flight
	return f
}

// runFaultCells runs one faulted campaign cell per fault kind over the
// history, asserting the media-fault oracle: an injected fault either
// doesn't materialize, is repaired, or is explicitly unrecoverable —
// never silent corruption.
func runFaultCells(m sim.NamedFactory, hist History, profile sim.Sched, rep *Report, rec *obs.Recorder, kinds map[string]bool) error {
	for _, kind := range fault.Kinds() {
		cell, plan := faultCell(hist, profile, kind)
		res, err := runFaulted(m, cell, plan)
		if err != nil {
			return fmt.Errorf("fuzz: faulted cell %s/%s: %w", m.Name, kind, err)
		}
		rep.FaultCells++
		rec.Inc(MFaultCells)
		kinds[string(kind)] = true
		if res.Outcome == sim.SilentCorruption {
			rep.Failures = append(rep.Failures, &Failure{
				Cell:   cell,
				Check:  "fault-silent-corruption",
				Detail: fmt.Sprintf("kind %s, plan seed %d: %v", kind, plan.Seed, res.Detections),
			})
			rec.Inc(MDisagreements)
		}
	}
	return nil
}

// faultCell is the cell and fault plan of one faulted campaign run over
// the history: crashed halfway, under the history's schedule profile
// seeded from the plan seed. The reported cell is the one that ran, so a
// failure re-creates its crash state from the report.
func faultCell(hist History, profile sim.Sched, kind fault.Kind) (Cell, fault.Plan) {
	planSeed := sim.MixSeed(hist.Seed, int64(fault.Sum(string(kind))), 5)
	sched := profile
	sched.Seed = sim.MixSeed(planSeed, 6)
	return Cell{History: hist, Crash: len(hist.Ops) / 2, Schedule: sched}, fault.Plan{Seed: planSeed, Kind: kind}
}

// runFaulted runs a fault cell under its plan (sim.RunFaulted).
func runFaulted(m sim.NamedFactory, cell Cell, plan fault.Plan) (*sim.FaultResult, error) {
	return sim.RunFaulted(m.New, sim.Config{
		Ops:        cell.History.Ops,
		Initial:    workload.InitialState(workload.Pages(cell.History.Pages)),
		CrashAfter: cell.Crash,
		Sched:      cell.Schedule,
	}, plan)
}

// execute runs the cell's history prefix under its schedule through the
// shared crash loop (sim.BuildCrashed) and crashes.
func execute(mk sim.Factory, cell Cell, rec *obs.Recorder) (method.DB, error) {
	return sim.BuildCrashed(mk, workload.InitialState(workload.Pages(cell.History.Pages)), cell.History.Ops, cell.Crash, cell.Schedule, rec)
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
