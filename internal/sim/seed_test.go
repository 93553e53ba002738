package sim

import (
	"testing"

	"redotheory/internal/fault"
)

// TestCellSeedsPairwiseDistinct is the seed-collision regression test:
// over a dense 7-method × 4-kind × 2000-crash-point × 10-seed grid every
// derived cell seed (both the run-schedule seed and the fault-plan seed)
// must be pairwise distinct. The pre-mixer derivation (seed*1000+crash /
// seed*7919+crash) collides on this grid as soon as crash points exceed
// the multiplier — (seed=1, crash=1000) aliased (seed=2, crash=0) — and
// silently reused workload schedules between cells.
func TestCellSeedsPairwiseDistinct(t *testing.T) {
	methods := []string{"logical", "physical", "physiological",
		"physiological+dpt", "genlsn", "genlsn+mv", "grouplsn"}
	kinds := []fault.Kind{fault.TornGroup, fault.PageBitRot, fault.LostWrite, fault.LogTornTail}
	const crashPoints = 2000
	const seeds = 10

	seen := make(map[int64]string, 2*len(methods)*len(kinds)*crashPoints*seeds)
	note := func(v int64, where string) {
		if prev, dup := seen[v]; dup {
			t.Fatalf("derived seed %d collides: %s and %s", v, prev, where)
		}
		seen[v] = where
	}
	for _, m := range methods {
		for _, k := range kinds {
			for crash := 0; crash < crashPoints; crash++ {
				for seed := int64(1); seed <= seeds; seed++ {
					run, plan := cellSeeds(seed, m, k, crash)
					cell := m + "/" + string(k)
					note(run, cell+"/run")
					note(plan, cell+"/plan")
				}
			}
		}
	}
	if want := 2 * len(methods) * len(kinds) * crashPoints * seeds; len(seen) != want {
		t.Fatalf("derived %d distinct seeds, want %d", len(seen), want)
	}
}

// TestOldSeedDerivationCollided documents the bug the mixer fixes: the
// replaced arithmetic derivation aliases cells once crash points exceed
// the multiplier. If this test ever fails, the grid above no longer
// witnesses the collision and the regression test should be re-derived.
func TestOldSeedDerivationCollided(t *testing.T) {
	old := func(seed int64, crash int) int64 { return seed*1000 + int64(crash) }
	if old(1, 1000) != old(2, 0) {
		t.Fatalf("expected the old derivation to collide on (1,1000) vs (2,0)")
	}
}

// TestMixSeedSensitivity spot-checks that every coordinate, including
// the stream constant, perturbs the derived seed.
func TestMixSeedSensitivity(t *testing.T) {
	base := MixSeed(1, 2, 3, 4, 1)
	for i, other := range []int64{
		MixSeed(2, 2, 3, 4, 1),
		MixSeed(1, 3, 3, 4, 1),
		MixSeed(1, 2, 4, 4, 1),
		MixSeed(1, 2, 3, 5, 1),
		MixSeed(1, 2, 3, 4, 2),
	} {
		if other == base {
			t.Fatalf("coordinate %d does not perturb the derived seed", i)
		}
	}
	if MixSeed(1, 2, 3, 4, 1) != base {
		t.Fatalf("MixSeed is not deterministic")
	}
	if base < 0 {
		t.Fatalf("MixSeed returned a negative seed %d", base)
	}
}
