package shard

import (
	"fmt"
	"sort"

	"redotheory/internal/core"
	"redotheory/internal/model"
	"redotheory/internal/partition"
)

// Txn is one cross-shard transaction: the shared id plus the per-log
// sequence vector its records carry — as Exec stamped it (the
// coordinator's uncertified table) or as StableTxns reads it back from
// the stable logs.
type Txn struct {
	// ID is the originating system operation's id, shared by every
	// participant record.
	ID model.OpID
	// Vec maps each writer-participant shard to the LSN of the
	// transaction's record in that shard's log.
	Vec map[int]core.LSN
	// Deps maps each read-only-participant shard to the log frontier the
	// transaction observed there: the cut must include that prefix for
	// the transaction's baked remote reads to be explainable.
	Deps map[int]core.LSN
}

// Shards returns the transaction's participant shards (writers and
// read-only), sorted.
func (t *Txn) Shards() []int {
	seen := make(map[int]bool, len(t.Vec)+len(t.Deps))
	for i := range t.Vec {
		seen[i] = true
	}
	for i := range t.Deps {
		seen[i] = true
	}
	out := make([]int, 0, len(seen))
	for i := range seen {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// CutInput is everything the certified-cut computation needs. Recover
// reads all of it off the shards' stable logs (cutInput); a live
// coordinator's Certify takes the transactions from its own table
// instead (certifyInput).
type CutInput struct {
	// Frontiers[i] is shard i's stable log frontier (highest durable
	// LSN) — the ceiling the cut starts from.
	Frontiers []core.LSN
	// LowWater[i] is the LSN of shard i's first surviving stable record
	// (NextLSN when the stable log is empty). Records below it were
	// truncated into the recovery base, i.e. installed; a cut may not
	// exclude them.
	LowWater []core.LSN
	// Txns is the cross-shard transaction table, ascending by id:
	// StableTxns, or the uncertified transactions with a stable record.
	Txns []Txn
}

// Cut is a certified cut: a vector of per-shard stable-log prefixes in
// which every cross-shard transaction is wholly inside or wholly
// outside, plus how the computation got there.
type Cut struct {
	// Frontier[i] is the highest LSN of shard i's log included in the
	// cut; the shard recovers from log.Prefix(Frontier[i]).
	Frontier []core.LSN
	// Dropped lists the transactions outside the cut (some record or
	// dependency not durable), ascending by id.
	Dropped []Txn
	// Retreats counts individual frontier retreats the fixpoint
	// performed — how much atomicity cost beyond raw durability.
	Retreats int
	// Clusters counts the connected groups of dropped transactions
	// (transactions sharing a participant shard fuse): the number of
	// independent "reasons" the cut is behind the frontiers.
	Clusters int
}

// Lag returns the total number of log records between the cut and the
// stable frontiers, summed over shards — 0 when the cut is exactly the
// frontier vector. (LSNs are dense per log, so frontier differences
// count records.)
func (c *Cut) Lag(in CutInput) int {
	lag := 0
	for i, f := range in.Frontiers {
		lag += int(f - c.Frontier[i])
	}
	return lag
}

// ComputeCut finds the maximal certified cut: the pointwise-largest
// vector cut ≤ in.Frontiers such that for every cross-shard transaction
// either every record LSN in its vector is ≤ the cut (and every
// read-only dependency frontier is too), or every record LSN is > the
// cut.
//
// Maximality and uniqueness: consistent cuts are closed under pointwise
// max — if a transaction is wholly inside either of two consistent cuts
// it is wholly inside their join, and if wholly outside both it is
// wholly outside the join (each vector entry exceeds both cuts at that
// shard, hence their max). So the consistent cuts below the frontier
// vector form a join-semilattice with a unique maximum, and the
// frontier-retreat fixpoint below finds it: the working cut starts at
// the frontiers (≥ the maximum) and only ever retreats to satisfy a
// constraint every consistent cut must satisfy, so it stays ≥ the
// maximum throughout and stops exactly at a consistent cut — the
// maximum. The same argument makes the result independent of the order
// transactions are examined (TestComputeCutDeterministic shuffles it).
//
// ComputeCut errors if the fixpoint would retreat below a low-water
// mark: records below it are already installed into the shard's
// recovery base, so a consistent cut excluding them cannot exist —
// which means some shard installed uncertified cross-shard work, a
// certification-gate violation, not a recoverable condition.
func ComputeCut(in CutInput) (*Cut, error) {
	n := len(in.Frontiers)
	cut := make([]core.LSN, n)
	copy(cut, in.Frontiers)
	c := &Cut{Frontier: cut}

	// Fixpoint: dropping one transaction can retreat a frontier past
	// another transaction's record, dropping it too. Each retreat
	// strictly lowers some entry, so termination is bounded by total log
	// length.
	for changed := true; changed; {
		changed = false
		for ti := range in.Txns {
			t := &in.Txns[ti]
			if txnInside(t, cut) {
				continue
			}
			// Some record or dependency is beyond the cut: the whole
			// transaction must fall outside, so retreat every shard whose
			// log still includes one of its records.
			for i, lsn := range t.Vec {
				if cut[i] < lsn {
					continue
				}
				target := lsn - 1
				if target < in.LowWater[i]-1 {
					return nil, fmt.Errorf(
						"shard: certified cut must retreat shard %d below low water %d to drop txn %d (record at %d): installed uncertified cross-shard work (gate violation)",
						i, in.LowWater[i], t.ID, lsn)
				}
				cut[i] = target
				c.Retreats++
				changed = true
			}
		}
	}

	// Classify and cluster the dropped transactions: transactions
	// sharing a participant shard fuse into one cluster (one retreat
	// cause can entangle both).
	var droppedIdx []int
	for ti := range in.Txns {
		if !txnInside(&in.Txns[ti], cut) {
			droppedIdx = append(droppedIdx, ti)
			c.Dropped = append(c.Dropped, in.Txns[ti])
		}
	}
	sort.Slice(c.Dropped, func(a, b int) bool { return c.Dropped[a].ID < c.Dropped[b].ID })
	if len(droppedIdx) > 0 {
		uf := partition.NewUnionFind(len(droppedIdx))
		lastOn := make(map[int]int) // shard → index into droppedIdx
		for k, ti := range droppedIdx {
			for _, s := range in.Txns[ti].Shards() {
				if prev, ok := lastOn[s]; ok {
					uf.Union(prev, k)
				}
				lastOn[s] = k
			}
		}
		c.Clusters = uf.Sets()
	}
	return c, nil
}

// txnInside reports whether the transaction is wholly inside the cut:
// every record within its shard's prefix and every read-only dependency
// frontier covered.
func txnInside(t *Txn, cut []core.LSN) bool {
	for i, lsn := range t.Vec {
		if lsn > cut[i] {
			return false
		}
	}
	for i, floor := range t.Deps {
		if floor > cut[i] {
			return false
		}
	}
	return true
}

// stableUnder reports whether some record of the transaction is at or
// below its shard's stable frontier — whether a scan of the stable logs
// (StableTxns) would come across the transaction at all.
func (t *Txn) stableUnder(frontiers []core.LSN) bool {
	for i, lsn := range t.Vec {
		if lsn <= frontiers[i] {
			return true
		}
	}
	return false
}
