package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"redotheory/internal/fault"
	"redotheory/internal/workload"
)

// canonicalLines renders campaign results into a canonical byte form:
// identity, outcome, every fired event and detection, and the degraded
// report's flags. Two sweeps agree exactly when these bytes agree.
func canonicalLines(rs []*FaultResult) string {
	var b strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&b, "%s/%s/crash=%d/seed=%d outcome=%s", r.Method, r.Kind, r.CrashAfter, r.Seed, r.Outcome)
		for _, e := range r.Fired {
			fmt.Fprintf(&b, " fired[%s]", e)
		}
		for _, d := range r.Detections {
			fmt.Fprintf(&b, " det[%s]", d)
		}
		if r.Degraded != nil {
			fmt.Fprintf(&b, " degraded=%v unrecoverable=%v quarantined=%d",
				r.Degraded.Degraded, r.Degraded.Unrecoverable, len(r.Degraded.Quarantined))
			if st := r.Degraded.State; st != nil {
				for _, x := range st.Vars() {
					fmt.Fprintf(&b, " %s=%v", x, st.Get(x))
				}
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func smallCampaign(workers int) CampaignConfig {
	return CampaignConfig{
		Methods:      namedFactories()[:4],
		NumOps:       8,
		NumPages:     4,
		CrashPoints:  []int{0, 4, 8},
		Seeds:        []int64{1, 2},
		TruncateProb: 0.5,
		Workers:      workers,
	}
}

// TestCampaignParallelMatchesSequential: the worker pool must be
// invisible — the parallel campaign's sorted results are byte-identical
// to the sequential sweep's, at any worker count.
func TestCampaignParallelMatchesSequential(t *testing.T) {
	seq, err := Campaign(smallCampaign(0))
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalLines(seq)
	for _, workers := range []int{2, 4, 9} {
		par, err := Campaign(smallCampaign(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := canonicalLines(par); got != want {
			t.Errorf("workers=%d: parallel campaign diverged from sequential\nparallel:\n%s\nsequential:\n%s", workers, got, want)
		}
	}
}

// TestCampaignResultsSorted: campaign output is in canonical order —
// method, fault kind, crash point, seed — regardless of worker count.
func TestCampaignResultsSorted(t *testing.T) {
	for _, workers := range []int{0, 4} {
		rs, err := Campaign(smallCampaign(workers))
		if err != nil {
			t.Fatal(err)
		}
		if !sort.SliceIsSorted(rs, resultLess(rs)) {
			t.Errorf("workers=%d: campaign results out of canonical order", workers)
		}
	}
}

func resultLess(rs []*FaultResult) func(i, j int) bool {
	return func(i, j int) bool {
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
	}
}

// TestSortResultsNormalizesAnyOrder: shuffling and re-sorting reproduces
// the canonical order exactly.
func TestSortResultsNormalizesAnyOrder(t *testing.T) {
	var rs []*FaultResult
	for _, m := range []string{"b", "a"} {
		for _, k := range []fault.Kind{fault.PageBitRot, fault.LostWrite} {
			for _, crash := range []int{4, 0} {
				for _, seed := range []int64{2, 1} {
					rs = append(rs, &FaultResult{Method: m, Kind: k, CrashAfter: crash, Seed: seed})
				}
			}
		}
	}
	want := append([]*FaultResult(nil), rs...)
	sortResults(want)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		shuffled := append([]*FaultResult(nil), rs...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		sortResults(shuffled)
		for i := range want {
			if shuffled[i] != want[i] {
				t.Fatalf("trial %d: position %d holds %s/%s/%d/%d, want %s/%s/%d/%d", trial, i,
					shuffled[i].Method, shuffled[i].Kind, shuffled[i].CrashAfter, shuffled[i].Seed,
					want[i].Method, want[i].Kind, want[i].CrashAfter, want[i].Seed)
			}
		}
	}
}

// TestSweepParallelCrossCheck: the parallel-recovery cross-check agrees
// with sequential recovery at every crash point for every method.
func TestSweepParallelCrossCheck(t *testing.T) {
	pages := workload.Pages(4)
	initial := workload.InitialState(pages)
	for _, f := range namedFactories() {
		ops, err := workload.ForMethod(f.Name, 12, pages, 7)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := Sweep(f.New, ops, initial, 7, 4, nil)
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

// TestRunCellsOrderAndEarliestError pins the campaign pool both
// campaigns share: results come back in cell order whatever the
// completion order, and when cells fail the error reported is the
// earliest failing cell's — what a sequential sweep reports — for a
// sequential pool and a concurrent one.
func TestRunCellsOrderAndEarliestError(t *testing.T) {
	const n = 40
	for _, workers := range []int{0, 1, 4} {
		// Later cells finish first, so completion order is reversed.
		got, err := runCells(n, workers, func(i int) (int, error) {
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
		rs, err := runCells(n, workers, func(i int) (int, error) {
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
