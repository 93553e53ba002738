package sim

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"redotheory/internal/model"
	"redotheory/internal/shard"
)

// TestBuildShardedCrashedDrawOrder pins the sharded crash loop's draw
// order the way TestBuildCrashedDrawOrder pins the single-log one: a
// sharded repro re-creates its crash state by re-running the loop from
// its seed, so the cross history and the order and count of the
// per-operation draws (shard, force, certify, flush, checkpoint,
// truncate) are part of the artifact format. For every shardable
// method × shards {2, 4} × seeds {1, 2} the crashed fixture — each
// shard's stable-log op ids and LSNs, the stable page LSNs, the refused
// operation count and the certified cut — must keep the digests below.
func TestBuildShardedCrashedDrawOrder(t *testing.T) {
	want := map[string]string{
		"genlsn+mv/2/1":         "33e4c3e3cf7e1767",
		"genlsn+mv/2/2":         "573b7caeed20302c",
		"genlsn+mv/4/1":         "9ff8cce42543aec6",
		"genlsn+mv/4/2":         "29980c2a87fc8047",
		"genlsn/2/1":            "33e4c3e3cf7e1767",
		"genlsn/2/2":            "573b7caeed20302c",
		"genlsn/4/1":            "9ff8cce42543aec6",
		"genlsn/4/2":            "29980c2a87fc8047",
		"grouplsn/2/1":          "f7fc6c548ede4321",
		"grouplsn/2/2":          "9ba0f2251b75be6c",
		"grouplsn/4/1":          "6acd68077a97739e",
		"grouplsn/4/2":          "949ddc972f1203c0",
		"logical/2/1":           "f7fc6c548ede4321",
		"logical/2/2":           "9ba0f2251b75be6c",
		"logical/4/1":           "8349edc2e862534e",
		"logical/4/2":           "769ac01319b64b54",
		"physiological+dpt/2/1": "33e4c3e3cf7e1767",
		"physiological+dpt/2/2": "573b7caeed20302c",
		"physiological+dpt/4/1": "9ff8cce42543aec6",
		"physiological+dpt/4/2": "29980c2a87fc8047",
		"physiological/2/1":     "33e4c3e3cf7e1767",
		"physiological/2/2":     "573b7caeed20302c",
		"physiological/4/1":     "9ff8cce42543aec6",
		"physiological/4/2":     "29980c2a87fc8047",
	}
	got := map[string]string{}
	for _, m := range ShardableMethods() {
		for _, shards := range []int{2, 4} {
			for seed := int64(1); seed <= 2; seed++ {
				// 36 operations over 4 pages per shard, staggered crash points.
				c, err := shardCell(m, 36, 4, seed, deriveCrashes(seed, 36, shards, true))
				if err != nil {
					t.Fatal(err)
				}
				d, skipped, err := BuildShardedCrashed(c)
				if err != nil {
					t.Fatal(err)
				}
				h := fnv.New64a()
				for i := 0; i < d.N(); i++ {
					db := d.Shard(i)
					fmt.Fprintf(h, "shard %d:", i)
					for _, r := range db.StableLog().Records() {
						fmt.Fprintf(h, "%d@%d,", r.Op.ID(), r.LSN)
					}
					lsns := db.Store().LSNs()
					ids := make([]model.Var, 0, len(lsns))
					for x := range lsns {
						ids = append(ids, x)
					}
					sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
					for _, x := range ids {
						fmt.Fprintf(h, "%s=%d,", x, lsns[x])
					}
				}
				out, err := d.Recover(shard.RecoverOptions{})
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(h, "skipped=%d cut=%v", skipped, out.Cut.Frontier)
				got[fmt.Sprintf("%s/%d/%d", m.Name, shards, seed)] = fmt.Sprintf("%016x", h.Sum64())
			}
		}
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(keys) != 24 {
		t.Fatalf("%d cases, want 24", len(keys))
	}
	for _, k := range keys {
		if got[k] != want[k] {
			t.Errorf("%s: digest %s, want %s", k, got[k], want[k])
		}
	}
}
