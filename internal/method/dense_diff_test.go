package method_test

import (
	"testing"

	"redotheory/internal/core"
	"redotheory/internal/method"
	"redotheory/internal/model"
	"redotheory/internal/serve"
	"redotheory/internal/workload"
)

// TestDenseRecoverMatchesMapRecover is the kernel-conformance grid: for
// every Section 6 method, every workload shape legal for it, and
// randomized crash points and background schedules, every instantiation
// of core.Scan must be indistinguishable from the map-based reference
// procedure (core.Recover, which the Recovery Invariant checker audits) —
//
//   - dense sequential recovery (method.Recover → core.RecoverDense),
//   - the decide-only scan followed by a plan replay (RecoverParallel)
//     at several widths,
//   - the instant-restart engine (serve), drained,
//   - restart-installing recovery run to completion, where the method
//     installs during recovery —
//
// same final state (State.Equal via SameOutcome), same redo and
// installed sets, same replay order, same records examined; the
// installing pass, which reports no Result, is held to the state.
func TestDenseRecoverMatchesMapRecover(t *testing.T) {
	pages := workload.Pages(5)
	method.EachFactory(func(name string, mk func(*model.State) method.DB) {
		shapes, err := workload.ShapesFor(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, shape := range shapes {
			shape := shape
			t.Run(name+"/"+shape.Name, func(t *testing.T) {
				for seed := int64(1); seed <= 2; seed++ {
					ops := shape.Gen(18, pages, seed)
					initial := workload.InitialState(pages)
					for crash := 0; crash <= len(ops); crash += 2 + int(seed) {
						db := method.CrashedDB(t, mk, ops, initial, crash, seed*37+int64(crash))

						ref, err := core.Recover(method.Survivors(db))
						if err != nil {
							t.Fatalf("crash=%d seed=%d: map-based recovery: %v", crash, seed, err)
						}
						dense, err := method.Recover(db)
						if err != nil {
							t.Fatalf("crash=%d seed=%d: dense recovery: %v", crash, seed, err)
						}
						if err := dense.SameOutcome(ref); err != nil {
							t.Fatalf("crash=%d seed=%d: dense sequential diverged from map-based: %v", crash, seed, err)
						}
						for _, workers := range []int{1, 4} {
							par, err := method.RecoverParallel(db, method.ParallelOptions{Workers: workers})
							if err != nil {
								t.Fatalf("crash=%d seed=%d workers=%d: %v", crash, seed, workers, err)
							}
							if err := par.SameOutcome(ref); err != nil {
								t.Fatalf("crash=%d seed=%d workers=%d: dense parallel diverged from map-based: %v", crash, seed, workers, err)
							}
						}

						eng, err := serve.New(db, serve.Options{})
						if err != nil {
							t.Fatalf("crash=%d seed=%d: serve: %v", crash, seed, err)
						}
						if err := eng.Drain(); err != nil {
							t.Fatalf("crash=%d seed=%d: serve drain: %v", crash, seed, err)
						}
						served, err := eng.Result()
						eng.Close()
						if err != nil {
							t.Fatalf("crash=%d seed=%d: serve result: %v", crash, seed, err)
						}
						if err := served.SameOutcome(ref); err != nil {
							t.Fatalf("crash=%d seed=%d: drained serve engine diverged from map-based: %v", crash, seed, err)
						}

						// Last: the installing pass is the one leg that
						// writes the crashed DB's stable state.
						if !db.(method.ProgressCheckpointer).InstallsDuringRecovery() {
							continue
						}
						if _, done, err := method.RecoverInstalling(db.(method.Installer), -1); err != nil || !done {
							t.Fatalf("crash=%d seed=%d: installing recovery: done=%v err=%v", crash, seed, done, err)
						}
						if got := db.StableState(); !got.Equal(ref.State) {
							t.Fatalf("crash=%d seed=%d: installing recovery diverged from map-based on %v", crash, seed, got.Diff(ref.State))
						}
					}
				}
			})
		}
	})
}

// TestDenseRecoverEmptyLog: a crash before any logging recovers to the
// stable state through the dense path, identically to the reference.
func TestDenseRecoverEmptyLog(t *testing.T) {
	pages := workload.Pages(3)
	db := method.NewPhysiological(workload.InitialState(pages))
	db.Crash()
	ref, err := core.Recover(method.Survivors(db))
	if err != nil {
		t.Fatal(err)
	}
	dense, err := method.Recover(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := dense.SameOutcome(ref); err != nil {
		t.Fatal(err)
	}
}
