package method_test

import (
	"fmt"
	"testing"

	"redotheory/internal/core"
	"redotheory/internal/method"
	"redotheory/internal/model"
	"redotheory/internal/serve"
	"redotheory/internal/workload"
)

// TestEnginesLeaveTheCrashUntouched pins the promise every read-only
// recovery entry point makes — the crashed DB itself is not modified —
// and the value's one narrowing: for every method and a few crash
// points, a fresh method.Survivors value taken after each engine runs
// equals the one taken before it (stable state, log LSNs, checkpoint
// set); Prefix(last LSN) recovers exactly what the full value does; and
// Prefix(0) replays nothing.
func TestEnginesLeaveTheCrashUntouched(t *testing.T) {
	pages := workload.Pages(5)
	engines := []struct {
		name string
		run  func(db method.DB) error
	}{
		{"Recover", func(db method.DB) error { _, err := method.Recover(db); return err }},
		{"RecoverParallel/1", func(db method.DB) error {
			_, err := method.RecoverParallel(db, method.ParallelOptions{Workers: 1})
			return err
		}},
		{"RecoverParallel/4", func(db method.DB) error {
			_, err := method.RecoverParallel(db, method.ParallelOptions{Workers: 4})
			return err
		}},
		{"serve", func(db method.DB) error {
			e, err := serve.New(db, serve.Options{})
			if err != nil {
				return err
			}
			defer e.Close()
			return e.Drain()
		}},
		{"RecoverDegraded", func(db method.DB) error {
			res, err := method.RecoverDegraded(db, method.RunToCompletion())
			if err != nil {
				return err
			}
			if res.Degraded || len(res.Detections) > 0 {
				return fmt.Errorf("clean crash took the conservative path: %v", res.Detections)
			}
			return nil
		}},
	}
	method.EachFactory(func(name string, mk func(*model.State) method.DB) {
		ops, err := workload.ForMethod(name, 24, pages, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, crash := range []int{0, len(ops) / 2, len(ops)} {
			at := fmt.Sprintf("%s crash=%d", name, crash)
			db := method.CrashedDB(t, mk, ops, workload.InitialState(pages), crash, int64(crash)+11)
			for _, e := range engines {
				before := method.Survivors(db)
				if err := e.run(db); err != nil {
					t.Fatalf("%s %s: %v", at, e.name, err)
				}
				if err := sameSurvivors(before, method.Survivors(db)); err != nil {
					t.Errorf("%s: %s modified the crashed DB: %v", at, e.name, err)
				}
			}

			full, err := core.RecoverDense(nil, method.Survivors(db))
			if err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			if crash == len(ops) && len(full.Replayed) == 0 {
				t.Fatalf("%s: the fixture redoes nothing, so no engine is exercised", at)
			}
			sv := method.Survivors(db)
			whole, err := core.RecoverDense(nil, sv.Prefix(sv.Log.MaxLSN()))
			if err != nil {
				t.Fatalf("%s: Prefix(last): %v", at, err)
			}
			if err := whole.SameOutcome(full); err != nil {
				t.Errorf("%s: Prefix(last LSN) recovered differently from the full value: %v", at, err)
			}
			stable := method.Survivors(db).State
			none, err := core.RecoverDense(nil, method.Survivors(db).Prefix(0))
			if err != nil {
				t.Fatalf("%s: Prefix(0): %v", at, err)
			}
			if len(none.Replayed) != 0 || none.Examined != 0 || !none.State.Equal(stable) {
				t.Errorf("%s: Prefix(0) replayed %d of %d examined records", at, len(none.Replayed), none.Examined)
			}
		}
	})
}

// sameSurvivors compares two values of one crash: the stable state,
// the log's LSNs, and the checkpoint set.
func sameSurvivors(a, b core.Survivors) error {
	if !a.State.Equal(b.State) {
		return fmt.Errorf("stable state differs on %v", a.State.Diff(b.State))
	}
	ar, br := a.Log.Records(), b.Log.Records()
	if len(ar) != len(br) {
		return fmt.Errorf("stable log has %d records, was %d", len(br), len(ar))
	}
	for i := range ar {
		if ar[i].LSN != br[i].LSN {
			return fmt.Errorf("stable log record %d has LSN %d, was %d", i, br[i].LSN, ar[i].LSN)
		}
	}
	if len(a.Checkpoint) != len(b.Checkpoint) {
		return fmt.Errorf("checkpoint covers %d operations, was %d", len(b.Checkpoint), len(a.Checkpoint))
	}
	for id := range a.Checkpoint {
		if !b.Checkpoint.Has(id) {
			return fmt.Errorf("checkpoint no longer covers operation %d", id)
		}
	}
	return nil
}
