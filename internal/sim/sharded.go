package sim

import (
	"errors"
	"fmt"
	"math/rand"

	"redotheory/internal/core"
	"redotheory/internal/shard"
	"redotheory/internal/workload"
)

// crossEvery makes every third operation of a sharded history a
// cross-shard transaction.
const crossEvery = 3

// ShardedCheck is the sharded leg's report.
type ShardedCheck struct {
	// Skipped counts operations refused because a participant shard had
	// already failed.
	Skipped int
	// CrossTxns counts the cross-shard transactions executed.
	CrossTxns int
	// Cut is the certified cut recovery replayed up to.
	Cut []core.LSN
	// DroppedTxns and DroppedRecords count the durable work the cut
	// abandoned for atomicity; StableRecords and CutRecords total the
	// per-shard logs and their cut prefixes.
	DroppedTxns    int
	DroppedRecords int
	StableRecords  int
	CutRecords     int
	// InvariantOK is the per-shard-projection audit verdict.
	InvariantOK bool
	// Mismatch is empty when sharded recovery (sequential and parallel)
	// agreed with the merged single-log oracle; otherwise it explains
	// the first divergence.
	Mismatch string
}

// OK reports whether the run passed: no oracle mismatch and every
// shard projection explainable.
func (c *ShardedCheck) OK() bool { return c.Mismatch == "" && c.InvariantOK }

// ShardableMethods returns DefaultMethods restricted to the methods the
// sharding coordinator supports (everything but physical logging).
func ShardableMethods() []NamedFactory {
	var out []NamedFactory
	for _, m := range DefaultMethods() {
		if shard.Eligible(m.Name) {
			out = append(out, m)
		}
	}
	return out
}

// deriveCrashes returns per-shard failure points: staggered through the
// second half of the history when stagger is set, a single synchronized
// point otherwise.
func deriveCrashes(seed int64, numOps, shards int, stagger bool) []int {
	rng := rand.New(rand.NewSource(seed*977 + int64(shards)))
	out := make([]int, shards)
	sync := numOps/2 + rng.Intn(numOps/2+1)
	for i := range out {
		if stagger {
			out[i] = numOps/2 + rng.Intn(numOps/2+1)
		} else {
			out[i] = sync
		}
	}
	return out
}

// shardCell is a sharded cell: m's cross-shard history (shard.CrossHistory)
// of numOps operations over pagesPerShard pages on each of len(crashes)
// shards, seeded by seed, where shard i freezes after crashes[i]
// operations.
func shardCell(m NamedFactory, numOps, pagesPerShard int, seed int64, crashes []int) (Cell, error) {
	pages := pagesPerShard * len(crashes)
	ops, err := shard.CrossHistory(m.Name, numOps, workload.Pages(pages), shard.NewRouter(len(crashes)), crossEvery, seed)
	if err != nil {
		return Cell{}, err
	}
	return Cell{Method: m, Shape: "cross-shard", Seed: seed, Pages: pages, Ops: ops, Sched: Sched{Seed: seed}, Shards: crashes}, nil
}

// shardSibling is the sharded leg's cell for a single-log cell: a
// two-shard cross-shard history as long as the cell's over as many
// pages, seeded from the cell's schedule, with the shards' crash points
// staggered off the cell's, so a grid sweeps shard-crash placements as
// it sweeps single-log crash points.
func shardSibling(c Cell) (Cell, error) {
	n := len(c.Ops)
	s, err := shardCell(c.Method, n, (c.Pages+1)/2, MixSeed(c.Sched.Seed, 9), []int{c.Crash, min(c.Crash+2, n)})
	s.Recorder = c.Recorder
	return s, err
}

// ShardCampaign runs the sharded leg over the grid's methods (each must
// be shard-eligible) × shard counts × {synchronized, staggered}
// per-shard crash points × seeds, each cell a cross-shard history of
// g.Ops operations over g.Pages pages per shard. The grid's crash points
// are unused: every cell derives its own from its seed.
func ShardCampaign(g Grid, counts []int) ([]*Result, error) {
	var cells []Cell
	for _, m := range g.Methods {
		for _, n := range counts {
			for _, stagger := range []bool{false, true} {
				for _, seed := range g.Seeds {
					c, err := shardCell(m, g.Ops, g.Pages, seed, deriveCrashes(seed, g.Ops, n, stagger))
					if err != nil {
						return nil, err
					}
					c.Recorder = g.Metrics.Recorder(m.Name)
					cells = append(cells, c)
				}
			}
		}
	}
	return runCells(cells, LegSharded, g.Workers)
}

// BuildShardedCrashed executes a sharded cell's history up to and
// including the crash and returns the crashed DB plus how many
// operations were refused due to failed participants. Before operation
// k every shard i with Shards[i] == k freezes; after each executed
// operation the background schedule (seeded from Sched.Seed) picks a
// shard and draws, in order, a log force, a cut certification, a gated
// install, a gated checkpoint or a log truncation.
func BuildShardedCrashed(c Cell) (*shard.DB, int, error) {
	if !shard.Eligible(c.Method.Name) {
		return nil, 0, fmt.Errorf("sim: method %q is not shard-eligible", c.Method.Name)
	}
	n := len(c.Shards)
	d := shard.New(shard.Factory(c.Method.New), n, workload.InitialState(workload.Pages(c.Pages)))
	d.SetRecorder(c.Recorder)
	rng := rand.New(rand.NewSource(c.Sched.Seed * 131))
	skipped := 0
	for k, op := range c.Ops {
		for i := 0; i < n; i++ {
			if k == c.Shards[i] {
				d.Freeze(i)
			}
		}
		if err := d.Exec(op); err != nil {
			if errors.Is(err, shard.ErrShardDown) {
				skipped++
				continue
			}
			return nil, 0, fmt.Errorf("sim: exec op %d: %w", k, err)
		}
		i := rng.Intn(n)
		switch {
		case rng.Float64() < 0.35:
			d.FlushLog(i)
		case rng.Float64() < 0.3:
			if _, err := d.Certify(); err != nil {
				return nil, 0, fmt.Errorf("sim: certify after op %d: %w", k, err)
			}
		case rng.Float64() < 0.4:
			d.FlushOne(i)
		case rng.Float64() < 0.2:
			if err := d.Checkpoint(i); err != nil {
				return nil, 0, fmt.Errorf("sim: checkpoint shard %d: %w", i, err)
			}
		case rng.Float64() < 0.3:
			if _, err := d.Truncate(i); err != nil {
				return nil, 0, fmt.Errorf("sim: truncate shard %d: %w", i, err)
			}
		}
	}
	d.Crash()
	return d, skipped, nil
}

// sharded is the sharded differential oracle: build the crashed run,
// recover it per shard from the certified cut (sequential dense replay,
// then partitioned parallel replay), audit every shard's projection
// with the invariant checker, and compare both recovered states with
// the merged single-log oracle. A single-log cell gets its two-shard
// sibling; methods the coordinator cannot host and empty histories are
// skipped.
func (p *probe) sharded() (string, string, error) {
	c := p.c
	if c.Shards == nil {
		if !shard.Eligible(c.Method.Name) || len(c.Ops) == 0 {
			return "", "", nil
		}
		var err error
		if c, err = shardSibling(c); err != nil {
			return "sharded-error", err.Error(), nil
		}
	}
	check, err := checkSharded(c)
	if err != nil {
		return "sharded-error", err.Error(), nil
	}
	p.res.Sharded = check
	if !check.OK() {
		return "sharded-oracle", fmt.Sprintf("crashes %v: %s", c.Shards, check.Mismatch), nil
	}
	return "", "", nil
}

// checkSharded runs the sharded cell and returns its report; the error
// return is for the run itself breaking.
func checkSharded(c Cell) (*ShardedCheck, error) {
	d, skipped, err := BuildShardedCrashed(c)
	if err != nil {
		return nil, err
	}
	check := &ShardedCheck{Skipped: skipped, CrossTxns: d.CrossTxns(), InvariantOK: true}

	out, err := d.Recover(shard.RecoverOptions{CheckInvariant: true, Recorder: c.Recorder})
	if err != nil {
		check.Mismatch = fmt.Sprintf("sequential sharded recovery: %v", err)
		return check, nil
	}
	check.Cut = out.Cut.Frontier
	check.DroppedTxns = len(out.Cut.Dropped)
	check.DroppedRecords = out.DroppedRecords
	for _, so := range out.Shards {
		check.StableRecords += so.StableRecords
		check.CutRecords += so.CutRecords
		if so.Invariant != nil && !so.Invariant.OK {
			check.InvariantOK = false
			if check.Mismatch == "" {
				check.Mismatch = fmt.Sprintf("shard %d projection: %s", so.Shard, so.Invariant.Summary())
			}
		}
	}

	oracle, err := d.MergedOracle(out.Cut)
	if err != nil {
		check.Mismatch = fmt.Sprintf("merged oracle: %v", err)
		return check, nil
	}
	if !out.State.Equal(oracle) {
		check.Mismatch = fmt.Sprintf("sharded recovery diverged from merged-log oracle on %v", out.State.Diff(oracle))
		return check, nil
	}

	par, err := d.Recover(shard.RecoverOptions{Parallel: true, Recorder: c.Recorder})
	if err != nil {
		check.Mismatch = fmt.Sprintf("parallel sharded recovery: %v", err)
		return check, nil
	}
	if !par.State.Equal(out.State) {
		check.Mismatch = fmt.Sprintf("parallel sharded recovery diverged from sequential on %v", par.State.Diff(out.State))
		return check, nil
	}
	for i := range out.Cut.Frontier {
		if par.Cut.Frontier[i] != out.Cut.Frontier[i] {
			check.Mismatch = fmt.Sprintf("cut not deterministic across recovery runs: %v vs %v", par.Cut.Frontier, out.Cut.Frontier)
			return check, nil
		}
	}
	return check, nil
}
