package method

import (
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
	db := mk(initial)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < crash; i++ {
		if err := db.Exec(ops[i]); err != nil {
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
	db.Crash()
	return db
}

// TestRecoverParallelMatchesSequential is the property test behind the
// parallel engine: over every method, randomized workloads, randomized
// crash points and schedules, RecoverParallel with 1 to 300 workers
// must be indistinguishable from sequential Recover — same state, same
// redo set, same replay order, same records examined — and the outcome
// must match the surviving log's oracle while the crash state passes the
// invariant checker.
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
					stableLog := db.StableLog()
					checker, err := core.NewChecker(stableLog, db.RecoveryBase())
					if err != nil {
						t.Fatal(err)
					}
					rep := checker.Check(db.StableState(), stableLog, db.Checkpointed(), db.RedoTest(), db.Analyze(), false)
					if !rep.OK {
						t.Fatalf("crash=%d seed=%d: invariant violated: %v", crash, seed, rep.Violations)
					}

					seq, err := Recover(db)
					if err != nil {
						t.Fatalf("crash=%d seed=%d: sequential recovery: %v", crash, seed, err)
					}
					want := oracle(db, db.RecoveryBase())
					if !seq.State.Equal(want) {
						t.Fatalf("crash=%d seed=%d: sequential recovery missed the oracle: %v", crash, seed, seq.State.Diff(want))
					}

					// 64 and 300 exceed every fixture's component count, so
					// the pool is clamped and every worker owns something.
					for _, workers := range []int{1, 2, 3, 8, 64, 300} {
						par, err := RecoverParallel(db, ParallelOptions{Workers: workers})
						if err != nil {
							t.Fatalf("crash=%d seed=%d workers=%d: %v", crash, seed, workers, err)
						}
						if want := min(workers, max(par.Plan.Components, 1)); par.Workers != want {
							t.Fatalf("crash=%d seed=%d workers=%d: pool of %d over %d components, want %d",
								crash, seed, workers, par.Workers, par.Plan.Components, want)
						}
						if err := par.SameOutcome(seq); err != nil {
							t.Fatalf("crash=%d seed=%d workers=%d: diverged: %v", crash, seed, workers, err)
						}
						if par.Plan.Ops != len(seq.Replayed) {
							t.Fatalf("crash=%d seed=%d workers=%d: plan scheduled %d ops, sequential replayed %d",
								crash, seed, workers, par.Plan.Ops, len(seq.Replayed))
						}
					}
				}
			}
		})
	}

	// The wide row: more than 255 components and as many workers, so a
	// worker number that only fit a byte would alias two owners.
	t.Run("wide", func(t *testing.T) {
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
			if par.Plan.Components <= 256 || par.Workers != workers {
				t.Fatalf("workers=%d: pool of %d over %d components, want %d over more than 256", workers, par.Workers, par.Plan.Components, workers)
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
