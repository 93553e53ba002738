package method

import (
	"fmt"
	"math/rand"
	"testing"

	"redotheory/internal/core"
	"redotheory/internal/model"
	"redotheory/internal/workload"
)

var parallelFactories = []struct {
	name string
	mk   func(*model.State) DB
}{
	{"logical", func(s *model.State) DB { return NewLogical(s) }},
	{"physical", func(s *model.State) DB { return NewPhysical(s) }},
	{"physiological", func(s *model.State) DB { return NewPhysiological(s) }},
	{"physiological+dpt", func(s *model.State) DB { return NewPhysiologicalDPT(s) }},
	{"genlsn", func(s *model.State) DB { return NewGenLSN(s) }},
	{"genlsn+mv", func(s *model.State) DB { return NewGenLSNMV(s) }},
	{"grouplsn", func(s *model.State) DB { return NewGroupLSN(s) }},
}

// crashedDB runs ops[:crash] against a fresh DB with a seeded background
// schedule of flushes, log forces, and checkpoints, then crashes it.
func crashedDB(t *testing.T, mk func(*model.State) DB, ops []*model.Op, initial *model.State, crash int, seed int64) DB {
	t.Helper()
	db := runDB(t, mk, ops[:crash], initial, seed)
	db.Crash()
	return db
}

// runDB executes ops against a fresh DB under crashedDB's seeded
// background schedule and leaves it running.
func runDB(t *testing.T, mk func(*model.State) DB, ops []*model.Op, initial *model.State, seed int64) DB {
	t.Helper()
	db := mk(initial)
	rng := rand.New(rand.NewSource(seed))
	for i, op := range ops {
		if err := db.Exec(op); err != nil {
			t.Fatalf("%s: exec op %d: %v", db.Name(), i, err)
		}
		if rng.Float64() < 0.3 {
			db.FlushOne()
		}
		if rng.Float64() < 0.2 {
			db.FlushLog()
		}
		if rng.Float64() < 0.1 {
			if err := db.Checkpoint(); err != nil {
				t.Fatalf("%s: checkpoint: %v", db.Name(), err)
			}
		}
	}
	return db
}

// checkParallel recovers db in parallel with each pool size and holds
// the result to seq: the same outcome, every admitted record replayed
// by exactly one stage, the full plan covering the redo set, and a pool
// no larger than the tail's components.
func checkParallel(t *testing.T, db DB, seq *core.Result, label string, workers ...int) {
	t.Helper()
	for _, w := range workers {
		par, err := RecoverParallel(db, ParallelOptions{Workers: w})
		if err != nil {
			t.Fatalf("%s workers=%d: %v", label, w, err)
		}
		if want := min(w, max(par.Tail.Components, 1)); par.Workers != want {
			t.Fatalf("%s workers=%d: pool of %d over %d tail components, want %d",
				label, w, par.Workers, par.Tail.Components, want)
		}
		if err := par.SameOutcome(seq); err != nil {
			t.Fatalf("%s workers=%d: diverged: %v", label, w, err)
		}
		if par.Pipelined+par.Tail.Ops != len(seq.Replayed) || par.Plan().Ops != len(seq.Replayed) {
			t.Fatalf("%s workers=%d: pipelined %d + pooled %d records, plan of %d, sequential replayed %d",
				label, w, par.Pipelined, par.Tail.Ops, par.Plan().Ops, len(seq.Replayed))
		}
	}
}

// sequential recovers db sequentially, holds the result to the oracle,
// and returns it.
func sequential(t *testing.T, db DB, label string) *core.Result {
	t.Helper()
	seq, err := Recover(db)
	if err != nil {
		t.Fatalf("%s: sequential recovery: %v", label, err)
	}
	if want := oracle(db, db.RecoveryBase()); !seq.State.Equal(want) {
		t.Fatalf("%s: sequential recovery missed the oracle: %v", label, seq.State.Diff(want))
	}
	return seq
}

// TestRecoverParallelMatchesSequential is the property test behind the
// parallel engine: over every method, randomized workloads, randomized
// crash points and schedules, RecoverParallel with 1 to 300 workers
// must be indistinguishable from sequential Recover — same state, same
// redo set, same replay order, same records examined — and the outcome
// must match the surviving log's oracle while the crash state passes the
// invariant checker. The handoff rows pin the pipeline's split: logs
// shorter than one chunk and exactly one chunk long, and a handoff
// forced at every chunk boundary of a longer log.
func TestRecoverParallelMatchesSequential(t *testing.T) {
	pages := workload.Pages(6)
	for _, f := range parallelFactories {
		f := f
		t.Run(f.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				ops, err := workload.ForMethod(f.name, 24, pages, seed)
				if err != nil {
					t.Fatal(err)
				}
				initial := workload.InitialState(pages)
				for crash := 0; crash <= len(ops); crash += 1 + int(seed)%3 {
					db := crashedDB(t, f.mk, ops, initial, crash, seed*100+int64(crash))

					// Crash-state invariant audit, as in the simulator.
					sv := Survivors(db)
					checker, err := core.NewChecker(sv.Log, db.RecoveryBase())
					if err != nil {
						t.Fatal(err)
					}
					rep := checker.Check(sv.State, sv.Log, sv.Checkpoint, sv.Redo, sv.Analyze, false)
					if !rep.OK {
						t.Fatalf("crash=%d seed=%d: invariant violated: %v", crash, seed, rep.Violations)
					}

					label := fmt.Sprintf("crash=%d seed=%d", crash, seed)
					// 64 and 300 exceed every fixture's component count, so
					// the pool is clamped and every worker owns something.
					checkParallel(t, db, sequential(t, db, label), label, 1, 2, 3, 8, 64, 300)
				}
			}

			// A log shorter than one chunk and a log of exactly one: the
			// first chunk is the last, and the handoff finds it unpublished.
			// Single-page operations log one record each under every method.
			for _, n := range []int{ChunkLen(24) - 8, ChunkLen(32)} {
				db := runDB(t, f.mk, workload.SinglePage(n, pages, 4, false), workload.InitialState(pages), 4)
				db.FlushLog()
				db.Crash()
				if got := db.StableLog().Len(); got != n {
					t.Fatalf("stable log of %d records, want %d", got, n)
				}
				label := fmt.Sprintf("records=%d chunk=%d", n, ChunkLen(n))
				checkParallel(t, db, sequential(t, db, label), label, 1, 2, 3, 64)
			}

			// A handoff forced at every chunk boundary, past the last one
			// included: the pipeline replays exactly the first k chunks'
			// admitted records and the pool takes the rest.
			ops, err := workload.ForMethod(f.name, 5*ChunkLen(200)+13, pages, 5)
			if err != nil {
				t.Fatal(err)
			}
			for _, crash := range []int{len(ops) / 2, len(ops)} {
				db := crashedDB(t, f.mk, ops, workload.InitialState(pages), crash, 500+int64(crash))
				n := db.StableLog().Len()
				seq := sequential(t, db, fmt.Sprintf("crash=%d", crash))
				for k := 0; k <= n/ChunkLen(n)+1; k++ {
					func() {
						defer ForceHandoff(k)()
						checkParallel(t, db, seq, fmt.Sprintf("crash=%d handoff=%d", crash, k), 1, 2, 3, 64)
					}()
				}
			}
		})
	}

	// The wide row: more than 255 components and as many workers, so a
	// worker number that only fit a byte would alias two owners. The
	// handoff is forced before the first chunk, so the pool takes the
	// whole log.
	t.Run("wide", func(t *testing.T) {
		defer ForceHandoff(0)()
		pages := workload.Pages(1000)
		ops := workload.SinglePage(2000, pages, 5, false)
		db := crashedDB(t, func(s *model.State) DB { return NewPhysiological(s) }, ops, workload.InitialState(pages), len(ops), 5)
		seq, err := Recover(db)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{3, 300} {
			par, err := RecoverParallel(db, ParallelOptions{Workers: workers})
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if par.Pipelined != 0 || par.Tail.Components <= 256 || par.Workers != workers {
				t.Fatalf("workers=%d: pool of %d over %d components after %d pipelined records, want %d over more than 256 and none pipelined",
					workers, par.Workers, par.Tail.Components, par.Pipelined, workers)
			}
			if err := par.SameOutcome(seq); err != nil {
				t.Fatalf("workers=%d: diverged: %v", workers, err)
			}
		}
	})
}

// TestRecoverParallelDefaultWorkers: Workers <= 0 picks a sensible pool
// and still recovers correctly.
func TestRecoverParallelDefaultWorkers(t *testing.T) {
	pages := workload.Pages(4)
	db := crashedDB(t, func(s *model.State) DB { return NewGenLSN(s) },
		workload.ReadManyWriteOne(16, pages, 2, 11), workload.InitialState(pages), 10, 11)
	seq, err := Recover(db)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RecoverParallel(db, ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := par.SameOutcome(seq); err != nil {
		t.Error(err)
	}
}
