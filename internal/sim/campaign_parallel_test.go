package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"redotheory/internal/fault"
	"redotheory/internal/workload"
)

// canonicalLines renders campaign results into a canonical byte form:
// identity, outcome, every fired event and detection, and the degraded
// report's flags. Two sweeps agree exactly when these bytes agree.
func canonicalLines(rs []*Result) string {
	var b strings.Builder
	for _, r := range rs {
		c, f := r.Cell, r.Fault
		fmt.Fprintf(&b, "%s/%s/crash=%d/seed=%d outcome=%s", c.Method.Name, c.Fault.Kind, c.Crash, c.Seed, f.Outcome)
		for _, e := range f.Fired {
			fmt.Fprintf(&b, " fired[%s]", e)
		}
		for _, d := range f.Detections {
			fmt.Fprintf(&b, " det[%s]", d)
		}
		if f.Degraded != nil {
			fmt.Fprintf(&b, " degraded=%v unrecoverable=%v quarantined=%d",
				f.Degraded.Degraded, f.Degraded.Unrecoverable, len(f.Degraded.Quarantined))
			if st := f.Degraded.State; st != nil {
				for _, x := range st.Vars() {
					fmt.Fprintf(&b, " %s=%v", x, st.Get(x))
				}
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func smallGrid(workers int) Grid {
	return Grid{
		Methods:     namedFactories()[:4],
		Ops:         8,
		Pages:       4,
		CrashPoints: []int{0, 4, 8},
		Seeds:       []int64{1, 2},
		Workers:     workers,
	}
}

// TestCampaignParallelMatchesSequential: the worker pool must be
// invisible — the parallel campaign's results are byte-identical to the
// sequential sweep's, at any worker count.
func TestCampaignParallelMatchesSequential(t *testing.T) {
	seq, err := Campaign(smallGrid(0), fault.Kinds(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalLines(seq)
	for _, workers := range []int{2, 4, 9} {
		par, err := Campaign(smallGrid(workers), fault.Kinds(), 0.5)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := canonicalLines(par); got != want {
			t.Errorf("workers=%d: parallel campaign diverged from sequential\nparallel:\n%s\nsequential:\n%s", workers, got, want)
		}
	}
}

// TestResultsInGridOrder: every grid returns its results in grid order —
// the order it lists its cells in, one distinct coordinate per cell —
// at one worker and at four: the media-fault campaign (method, seed,
// crash point, kind), the nested-crash campaign (method, seed, crash
// point, schedule) and the shard grid (method, shard count, stagger,
// seed).
func TestResultsInGridOrder(t *testing.T) {
	kinds := []fault.Kind{fault.PageBitRot, fault.LogTornTail}
	schedules := [][]int{nil, {1, 0}}
	for _, workers := range []int{1, 4} {
		g := smallGrid(workers)
		var want []string
		for _, m := range g.Methods {
			for _, seed := range g.Seeds {
				for _, crash := range g.CrashPoints {
					for _, k := range kinds {
						want = append(want, fmt.Sprintf("%s/%d/%d/%s", m.Name, seed, crash, k))
					}
				}
			}
		}
		rs, err := Campaign(g, kinds, 0)
		if err != nil {
			t.Fatal(err)
		}
		checkOrder(t, "campaign", workers, rs, want, func(c Cell) string {
			return fmt.Sprintf("%s/%d/%d/%s", c.Method.Name, c.Seed, c.Crash, c.Fault.Kind)
		})

		want = want[:0]
		for _, m := range g.Methods {
			for _, seed := range g.Seeds {
				for _, crash := range g.CrashPoints {
					for _, s := range schedules {
						want = append(want, fmt.Sprintf("%s/%d/%d/%v", m.Name, seed, crash, s))
					}
				}
			}
		}
		rs, err = NestedCrashCampaign(g, schedules, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		checkOrder(t, "nested-crash", workers, rs, want, func(c Cell) string {
			return fmt.Sprintf("%s/%d/%d/%v", c.Method.Name, c.Seed, c.Crash, c.Nested.Crashes)
		})

		g = Grid{Methods: ShardableMethods()[:2], Ops: 12, Pages: 2, Seeds: []int64{1, 2}, Workers: workers}
		want = want[:0]
		for _, m := range g.Methods {
			for _, n := range []int{2, 3} {
				for _, stagger := range []bool{false, true} {
					for _, seed := range g.Seeds {
						want = append(want, fmt.Sprintf("%s/%d/%v", m.Name, seed, deriveCrashes(seed, g.Ops, n, stagger)))
					}
				}
			}
		}
		rs, err = ShardCampaign(g, []int{2, 3})
		if err != nil {
			t.Fatal(err)
		}
		checkOrder(t, "shard", workers, rs, want, func(c Cell) string {
			return fmt.Sprintf("%s/%d/%v", c.Method.Name, c.Seed, c.Shards)
		})
	}
}

// checkOrder asserts the results' coordinates are want, in order, and
// pairwise distinct.
func checkOrder(t *testing.T, grid string, workers int, rs []*Result, want []string, key func(Cell) string) {
	t.Helper()
	if len(rs) != len(want) {
		t.Fatalf("%s workers=%d: %d results, want %d", grid, workers, len(rs), len(want))
	}
	seen := map[string]bool{}
	for i, r := range rs {
		k := key(r.Cell)
		if k != want[i] {
			t.Fatalf("%s workers=%d: result %d is %s, want %s", grid, workers, i, k, want[i])
		}
		if seen[k] {
			t.Fatalf("%s workers=%d: coordinate %s repeats", grid, workers, k)
		}
		seen[k] = true
	}
}

// TestSweepParallelCrossCheck: the parallel-recovery cross-check agrees
// with sequential recovery at every crash point for every method.
func TestSweepParallelCrossCheck(t *testing.T) {
	pages := workload.Pages(4)
	for _, f := range namedFactories() {
		ops, err := workload.ForMethod(f.Name, 12, pages, 7)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := Sweep(f, ops, len(pages), 7, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		s := Summarize(rs)
		if s.ParallelOK != s.Runs {
			t.Errorf("%s: parallel agreed at %d/%d crash points", f.Name, s.ParallelOK, s.Runs)
		}
		if s.Recovered != s.Runs {
			t.Errorf("%s: recovered at %d/%d crash points", f.Name, s.Recovered, s.Runs)
		}
	}
}

// TestRunCellsOrderAndEarliestError pins the pool every grid's cells
// run on (runCells): results come back in cell order whatever the
// completion order, and when cells fail the error reported is the
// earliest failing cell's — what a sequential sweep reports — for a
// sequential pool and a concurrent one.
func TestRunCellsOrderAndEarliestError(t *testing.T) {
	const n = 40
	for _, workers := range []int{0, 1, 4} {
		// Later cells finish first, so completion order is reversed.
		got, err := pool(n, workers, func(i int) (int, error) {
			time.Sleep(time.Duration(n-i) * 20 * time.Microsecond)
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), n)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result %d is %d, want %d", workers, i, v, i*i)
			}
		}

		failing := map[int]bool{7: true, 23: true, 31: true}
		rs, err := pool(n, workers, func(i int) (int, error) {
			if failing[i] {
				return 0, fmt.Errorf("cell %d failed", i)
			}
			return i, nil
		})
		if rs != nil || err == nil || err.Error() != "cell 7 failed" {
			t.Fatalf("workers=%d: got results %v, error %v; want the error of cell 7", workers, rs, err)
		}
	}
}
