package shard

import (
	"math/rand"
	"testing"

	"redotheory/internal/core"
	"redotheory/internal/model"
)

func vec(pairs ...core.LSN) map[int]core.LSN {
	out := make(map[int]core.LSN, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		out[int(pairs[i])] = pairs[i+1]
	}
	return out
}

func lowWater(n int) []core.LSN {
	out := make([]core.LSN, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

func TestComputeCutKeepsWhollyDurableTxns(t *testing.T) {
	in := CutInput{
		Frontiers: []core.LSN{5, 5},
		LowWater:  lowWater(2),
		Txns:      []Txn{{ID: 10, Vec: vec(0, 3, 1, 2)}},
	}
	cut, err := ComputeCut(in)
	if err != nil {
		t.Fatal(err)
	}
	if cut.Frontier[0] != 5 || cut.Frontier[1] != 5 {
		t.Errorf("cut = %v, want the frontiers", cut.Frontier)
	}
	if len(cut.Dropped) != 0 || cut.Retreats != 0 {
		t.Errorf("dropped %d, retreats %d on a wholly durable txn", len(cut.Dropped), cut.Retreats)
	}
}

func TestComputeCutDropsTornTxn(t *testing.T) {
	// Txn 10 has a record at shard0:3 but its shard1 record at LSN 7 is
	// beyond shard 1's stable frontier 5 — the cut must exclude shard
	// 0's copy too.
	in := CutInput{
		Frontiers: []core.LSN{5, 5},
		LowWater:  lowWater(2),
		Txns:      []Txn{{ID: 10, Vec: vec(0, 3, 1, 7)}},
	}
	cut, err := ComputeCut(in)
	if err != nil {
		t.Fatal(err)
	}
	if cut.Frontier[0] != 2 || cut.Frontier[1] != 5 {
		t.Errorf("cut = %v, want [2 5]", cut.Frontier)
	}
	if len(cut.Dropped) != 1 || cut.Dropped[0].ID != 10 {
		t.Errorf("dropped = %v, want txn 10", cut.Dropped)
	}
	if cut.Clusters != 1 {
		t.Errorf("clusters = %d, want 1", cut.Clusters)
	}
}

func TestComputeCutCascades(t *testing.T) {
	// Dropping txn 10 (torn on shard 1) retreats shard 0 past txn 11's
	// record at shard0:4 — wait, past shard0:3, so txn 11 at shard0:4 is
	// also excluded and must drop its shard 1 copy at LSN 2.
	in := CutInput{
		Frontiers: []core.LSN{5, 5},
		LowWater:  lowWater(2),
		Txns: []Txn{
			{ID: 10, Vec: vec(0, 3, 1, 7)},
			{ID: 11, Vec: vec(0, 4, 1, 2)},
		},
	}
	cut, err := ComputeCut(in)
	if err != nil {
		t.Fatal(err)
	}
	if cut.Frontier[0] != 2 || cut.Frontier[1] != 1 {
		t.Errorf("cut = %v, want [2 1]", cut.Frontier)
	}
	if len(cut.Dropped) != 2 {
		t.Errorf("dropped = %v, want both txns", cut.Dropped)
	}
	// Both dropped txns share shard 0 and shard 1: one cluster.
	if cut.Clusters != 1 {
		t.Errorf("clusters = %d, want 1", cut.Clusters)
	}
}

func TestComputeCutHonorsReadDeps(t *testing.T) {
	// Txn 10 writes only shard 0 but read shard 1 at frontier 8; shard
	// 1's stable frontier is 5, so the observed prefix is not durable
	// and the txn must drop.
	in := CutInput{
		Frontiers: []core.LSN{5, 5},
		LowWater:  lowWater(2),
		Txns:      []Txn{{ID: 10, Vec: vec(0, 3), Deps: vec(1, 8)}},
	}
	cut, err := ComputeCut(in)
	if err != nil {
		t.Fatal(err)
	}
	if cut.Frontier[0] != 2 || cut.Frontier[1] != 5 {
		t.Errorf("cut = %v, want [2 5]", cut.Frontier)
	}
	if len(cut.Dropped) != 1 {
		t.Errorf("dropped = %v, want txn 10", cut.Dropped)
	}
}

func TestComputeCutIndependentDropsCluster(t *testing.T) {
	// Two torn txns on disjoint shard pairs: two clusters.
	in := CutInput{
		Frontiers: []core.LSN{5, 5, 5, 5},
		LowWater:  lowWater(4),
		Txns: []Txn{
			{ID: 10, Vec: vec(0, 3, 1, 7)},
			{ID: 11, Vec: vec(2, 4, 3, 9)},
		},
	}
	cut, err := ComputeCut(in)
	if err != nil {
		t.Fatal(err)
	}
	if cut.Clusters != 2 {
		t.Errorf("clusters = %d, want 2", cut.Clusters)
	}
}

func TestComputeCutGateViolationIsAnError(t *testing.T) {
	// Txn 10's shard 0 record at LSN 3 sits below shard 0's low-water
	// mark 4 (already truncated, i.e. installed), but its shard 1 copy
	// is torn: no consistent cut exists, which means the certification
	// gate was violated.
	in := CutInput{
		Frontiers: []core.LSN{5, 5},
		LowWater:  []core.LSN{4, 1},
		Txns:      []Txn{{ID: 10, Vec: vec(0, 3, 1, 7)}},
	}
	if _, err := ComputeCut(in); err == nil {
		t.Fatal("no error for a cut forced below low water")
	}
}

// randomCutInput builds a plausible sharded-log snapshot: per-shard
// dense LSN sequences, cross-shard txns claiming one LSN per
// participant shard, frontiers cutting each log at a random point (the
// lost tail), and occasional read-only dependencies.
func randomCutInput(rng *rand.Rand) CutInput {
	n := 2 + rng.Intn(3)
	next := make([]core.LSN, n)
	for i := range next {
		next[i] = 1
	}
	var txns []Txn
	nTxn := rng.Intn(8)
	for t := 0; t < nTxn; t++ {
		// Pick 1–2 writer shards and advance each one's LSN counter,
		// with random gaps standing in for single-shard records.
		nw := 1 + rng.Intn(2)
		perm := rng.Perm(n)
		v := make(map[int]core.LSN)
		for _, i := range perm[:nw] {
			next[i] += core.LSN(rng.Intn(3))
			v[i] = next[i]
			next[i]++
		}
		var deps map[int]core.LSN
		if nw == 1 && rng.Intn(2) == 0 {
			j := perm[nw]
			if next[j] > 1 {
				deps = map[int]core.LSN{j: next[j] - 1}
			}
		}
		txns = append(txns, Txn{ID: model.OpID(100 + t), Vec: v, Deps: deps})
	}
	in := CutInput{
		Frontiers: make([]core.LSN, n),
		LowWater:  lowWater(n),
		Txns:      txns,
	}
	for i := range in.Frontiers {
		// The stable frontier cuts the log anywhere up to its end.
		in.Frontiers[i] = core.LSN(rng.Intn(int(next[i]) + 1))
	}
	return in
}

// TestComputeCutMaximality is the satellite property test: the computed
// cut is consistent, and advancing any shard's prefix by one record
// breaks consistency — no larger certified cut exists (consistent cuts
// are closed under pointwise max, so failing every single-step
// extension is failing them all). It holds whichever way the input was
// assembled: cold from every transaction, or from the uncertified ones
// alone (bothWays) — judged, either way, against the cold input.
func TestComputeCutMaximality(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	earlier := rand.New(rand.NewSource(43))
	for trial := 0; trial < 500; trial++ {
		in := randomCutInput(rng)
		for _, asm := range bothWays(t, in, earlier) {
			way := asm.way
			cut, err := ComputeCut(asm.in)
			if err != nil {
				// Random inputs never place records below low water 1.
				t.Fatalf("trial %d (%s): %v", trial, way, err)
			}
			if !consistent(in, cut.Frontier) {
				t.Fatalf("trial %d (%s): computed cut %v not consistent for %+v", trial, way, cut.Frontier, in)
			}
			for i := range cut.Frontier {
				if cut.Frontier[i] >= in.Frontiers[i] {
					continue
				}
				adv := make([]core.LSN, len(cut.Frontier))
				copy(adv, cut.Frontier)
				adv[i]++
				if consistent(in, adv) {
					t.Fatalf("trial %d (%s): cut %v not maximal: advancing shard %d to %d stays consistent (input %+v)",
						trial, way, cut.Frontier, i, adv[i], in)
				}
			}
		}
	}
}

// TestComputeCutDeterministic is the satellite determinism test: the
// cut does not depend on the order the transaction table presents the
// transactions (shard logs can be enumerated in any order), nor on
// which way the table was assembled — every shuffle of either assembly
// gives the cut, dropped set and clusters of the cold input it stands
// for.
func TestComputeCutDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	earlier := rand.New(rand.NewSource(44))
	for trial := 0; trial < 200; trial++ {
		in := randomCutInput(rng)
		for _, asm := range bothWays(t, in, earlier) {
			way := asm.way
			base, err := ComputeCut(asm.agrees)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			for shuffle := 0; shuffle < 4; shuffle++ {
				shuffled := CutInput{Frontiers: in.Frontiers, LowWater: in.LowWater}
				shuffled.Txns = append([]Txn(nil), asm.in.Txns...)
				rng.Shuffle(len(shuffled.Txns), func(a, b int) {
					shuffled.Txns[a], shuffled.Txns[b] = shuffled.Txns[b], shuffled.Txns[a]
				})
				got, err := ComputeCut(shuffled)
				if err != nil {
					t.Fatalf("trial %d (%s): %v", trial, way, err)
				}
				for i := range base.Frontier {
					if got.Frontier[i] != base.Frontier[i] {
						t.Fatalf("trial %d (%s): cut depends on txn order: %v vs %v", trial, way, got.Frontier, base.Frontier)
					}
				}
				if len(got.Dropped) != len(base.Dropped) || got.Clusters != base.Clusters {
					t.Fatalf("trial %d (%s): dropped/clusters depend on txn order", trial, way)
				}
				for k := range base.Dropped {
					if got.Dropped[k].ID != base.Dropped[k].ID {
						t.Fatalf("trial %d (%s): dropped %+v, want %+v", trial, way, got.Dropped, base.Dropped)
					}
				}
			}
		}
	}
}

// consistent reports whether an arbitrary vector is a consistent cut
// for the input: bounded by the frontiers, not excluding installed
// records, and atomic (every transaction wholly inside — dependencies
// included — or wholly outside). The maximality property test advances
// the computed cut one record at a time and watches this fail.
func consistent(in CutInput, cut []core.LSN) bool {
	for i, f := range in.Frontiers {
		if cut[i] > f || cut[i] < in.LowWater[i]-1 {
			return false
		}
	}
	for ti := range in.Txns {
		t := &in.Txns[ti]
		if txnInside(t, cut) {
			continue
		}
		// Not wholly inside: then no record may be inside.
		for i, lsn := range t.Vec {
			if lsn <= cut[i] {
				return false
			}
		}
	}
	return true
}
