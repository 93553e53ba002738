// Package sim is the crash harness. A Cell is one crash scenario — a
// method's history crashed at a point under a randomized background
// schedule of flushes, forces, checkpoints and truncations, plus
// optional fault, nested-crash and per-shard plans — and Run executes it
// through the one crash loop and checks it against an ordered table of
// oracle legs (cell.go): the invariant checker, the determined state,
// and sequential, parallel, degraded, served, sharded, supervised and
// faulted recovery, each against the state the stable log determines.
// Every grid is a list of cells plus the legs it runs: the Section 6
// crash matrix (E9, Sweep), the media-fault campaign (E18, Campaign),
// the nested-crash campaign, the shard grid, and internal/fuzz.
package sim

import (
	"sort"
	"time"

	"redotheory/internal/method"
	"redotheory/internal/model"
	"redotheory/internal/obs"
)

// Factory builds a fresh DB under some method from an initial state.
type Factory func(*model.State) method.DB

// Sweep runs the matrix legs over every crash point from 0 to len(ops)
// of the method's history over pages pages, under DefaultSched(seed +
// crash), and returns the per-point results: the crash-matrix row for
// one method and one workload. With workers > 0 every run also
// cross-checks partitioned parallel recovery (Cell.Workers); rec, when
// non-nil, is attached to every run and accumulates execution counters,
// phase spans and the partition width histogram across the sweep.
func Sweep(m NamedFactory, ops []*model.Op, pages int, seed int64, workers int, rec *obs.Recorder) ([]*Result, error) {
	cells := make([]Cell, len(ops)+1)
	for crash := range cells {
		cells[crash] = Cell{Method: m, Seed: seed, Pages: pages, Ops: ops, Crash: crash,
			Sched: DefaultSched(seed + int64(crash)), Workers: workers, Recorder: rec}
	}
	return runCells(cells, MatrixLegs, 1)
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
		s.Method = r.Cell.Method.Name
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
