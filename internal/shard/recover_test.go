package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"redotheory/internal/model"
	"redotheory/internal/workload"
)

// buildCrashed drives a sharded DB through a CrossHistory with a random
// background schedule (forces, certifications, installs, checkpoints,
// truncation) and staggered per-shard failures, then crashes whatever
// is still running. It returns the crashed DB and how many operations
// were refused because a participant had already failed.
func buildCrashed(t *testing.T, name string, mk Factory, nShards, nOps int, seed int64) (*DB, int) {
	t.Helper()
	pages := workload.Pages(4 * nShards)
	d := New(mk, nShards, workload.InitialState(pages))
	ops, err := CrossHistory(name, nOps, pages, d.Router(), 3, seed)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed * 31))

	// Staggered failures: each shard freezes at its own point in the
	// second half of the history (or survives to the end).
	crashes := make([]int, nShards)
	for i := range crashes {
		crashes[i] = nOps/2 + rng.Intn(nOps/2+1)
	}

	skipped := 0
	for k, op := range ops {
		for i := 0; i < nShards; i++ {
			if k == crashes[i] {
				d.Freeze(i)
			}
		}
		if err := d.Exec(op); err != nil {
			if errors.Is(err, ErrShardDown) {
				skipped++
				continue
			}
			t.Fatalf("%s: exec op %d: %v", name, k, err)
		}
		i := rng.Intn(nShards)
		switch {
		case rng.Float64() < 0.35:
			d.FlushLog(i)
		case rng.Float64() < 0.3:
			if _, err := d.Certify(); err != nil {
				t.Fatalf("%s: certify after op %d: %v", name, k, err)
			}
		case rng.Float64() < 0.4:
			d.FlushOne(i)
		case rng.Float64() < 0.2:
			if err := d.Checkpoint(i); err != nil {
				t.Fatalf("%s: checkpoint shard %d: %v", name, i, err)
			}
		case rng.Float64() < 0.3:
			if _, err := d.Truncate(i); err != nil {
				t.Fatalf("%s: truncate shard %d: %v", name, i, err)
			}
		}
	}
	d.Crash()
	return d, skipped
}

// TestShardedRecoveryMatchesMergedOracle is the tentpole differential
// oracle: per-shard recovery from the certified cut must land on
// exactly the state a merged single-log replay of the cut prefixes
// produces, for every eligible method, shard count, and crash pattern —
// and each shard's projection must satisfy the recovery invariant.
func TestShardedRecoveryMatchesMergedOracle(t *testing.T) {
	for _, m := range eligibleMethods {
		for _, nShards := range []int{2, 4} {
			for seed := int64(1); seed <= 6; seed++ {
				name := fmt.Sprintf("%s×%d/seed%d", m.name, nShards, seed)
				d, _ := buildCrashed(t, m.name, m.mk, nShards, 36, seed)

				out, err := d.Recover(RecoverOptions{CheckInvariant: true})
				if err != nil {
					t.Fatalf("%s: recover: %v", name, err)
				}
				if !out.InvariantOK() {
					for _, so := range out.Shards {
						if so.Invariant != nil && !so.Invariant.OK {
							t.Errorf("%s: shard %d: %s", name, so.Shard, so.Invariant.Summary())
						}
					}
					t.Fatalf("%s: per-shard projection invariant violated", name)
				}

				oracle, err := d.MergedOracle(out.Cut)
				if err != nil {
					t.Fatalf("%s: oracle: %v", name, err)
				}
				if !out.State.Equal(oracle) {
					t.Fatalf("%s: sharded recovery diverged from the merged-log oracle on %v",
						name, out.State.Diff(oracle))
				}

				par, err := d.Recover(RecoverOptions{Parallel: true})
				if err != nil {
					t.Fatalf("%s: parallel recover: %v", name, err)
				}
				if !par.State.Equal(out.State) {
					t.Fatalf("%s: parallel per-shard recovery diverged from sequential on %v",
						name, par.State.Diff(out.State))
				}
				for i := range out.Cut.Frontier {
					if par.Cut.Frontier[i] != out.Cut.Frontier[i] {
						t.Fatalf("%s: cut not deterministic across recovery runs: %v vs %v",
							name, par.Cut.Frontier, out.Cut.Frontier)
					}
				}
			}
		}
	}
}

// TestParallelPipelineMatchesSequential runs the shards' pipelined
// parallel recoveries concurrently over cut prefixes long enough for
// several pipeline chunks each: every shard's outcome must equal its
// sequential recovery's, and the union the merged-log oracle. Under
// -race it checks that concurrent pipelines share the log's view safely.
func TestParallelPipelineMatchesSequential(t *testing.T) {
	for _, m := range eligibleMethods {
		for seed := int64(1); seed <= 2; seed++ {
			name := fmt.Sprintf("%s×4/seed%d", m.name, seed)
			d, _ := buildCrashed(t, m.name, m.mk, 4, 600, seed)
			seq, err := d.Recover(RecoverOptions{})
			if err != nil {
				t.Fatalf("%s: recover: %v", name, err)
			}
			par, err := d.Recover(RecoverOptions{Parallel: true, Workers: 2})
			if err != nil {
				t.Fatalf("%s: parallel recover: %v", name, err)
			}
			long := 0
			for i := range seq.Shards {
				if err := par.Shards[i].Result.SameOutcome(seq.Shards[i].Result); err != nil {
					t.Fatalf("%s: shard %d: parallel diverged from sequential: %v", name, i, err)
				}
				if seq.Shards[i].CutRecords >= 64 {
					long++
				}
			}
			if long == 0 {
				t.Fatalf("%s: no shard's cut prefix spans two pipeline chunks", name)
			}
			oracle, err := d.MergedOracle(par.Cut)
			if err != nil {
				t.Fatalf("%s: oracle: %v", name, err)
			}
			if !par.State.Equal(oracle) {
				t.Fatalf("%s: parallel sharded recovery diverged from the merged-log oracle on %v", name, par.State.Diff(oracle))
			}
		}
	}
}

// TestRecoveryDropsTornCrossTxn pins the semantics on a hand-built
// scenario: a cross-shard transaction whose second record never became
// durable is rolled out of both logs, along with the durable follower
// it would otherwise leave unexplainable.
func TestRecoveryDropsTornCrossTxn(t *testing.T) {
	pages := workload.Pages(8)
	mk := eligibleMethods[0].mk // logical
	d := New(mk, 2, workload.InitialState(pages))
	a, b := twoShardPages(t, d.Router(), pages)

	// upd(a); xfer(a,b); upd(a) — force only shard 0's log, so the
	// transfer is torn: shard 1's copy is volatile at the crash.
	if err := d.Exec(model.ReadWrite(1, "upd", []model.Var{a}, []model.Var{a})); err != nil {
		t.Fatal(err)
	}
	if err := d.Exec(model.ReadWrite(2, "xfer", []model.Var{a, b}, []model.Var{a, b})); err != nil {
		t.Fatal(err)
	}
	if err := d.Exec(model.ReadWrite(3, "upd", []model.Var{a}, []model.Var{a})); err != nil {
		t.Fatal(err)
	}
	d.FlushLog(0)
	d.Crash()

	out, err := d.Recover(RecoverOptions{CheckInvariant: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Cut.Dropped) != 1 || out.Cut.Dropped[0].ID != 2 {
		t.Fatalf("dropped = %+v, want txn 2", out.Cut.Dropped)
	}
	// Shard 0 had 3 stable records (upd, xfer projection, upd); the cut
	// keeps only the first — the trailing upd is durable but beyond the
	// retreated frontier.
	s0 := out.Shards[d.Router().Shard(a)]
	if s0.StableRecords != 3 || s0.CutRecords != 1 {
		t.Errorf("shard of %q: %d stable, %d in cut; want 3 and 1", a, s0.StableRecords, s0.CutRecords)
	}
	if out.DroppedRecords != 2 {
		t.Errorf("DroppedRecords = %d, want 2", out.DroppedRecords)
	}
	if !out.InvariantOK() {
		t.Error("per-shard invariant violated")
	}
	oracle, err := d.MergedOracle(out.Cut)
	if err != nil {
		t.Fatal(err)
	}
	if !out.State.Equal(oracle) {
		t.Errorf("recovered state diverges from oracle on %v", out.State.Diff(oracle))
	}
}
