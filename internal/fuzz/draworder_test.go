package fuzz

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"redotheory/internal/model"
	"redotheory/internal/sim"
	"redotheory/internal/workload"
)

// TestBuildCrashedDrawOrder pins the crash loop's draw order. Every
// repro artifact re-creates its crash state by re-running the loop from
// a seed, so the order and the count of the loop's random draws (flush,
// force, checkpoint, then truncate) are part of the artifact format.
// For every method × schedule profile, plus one ForceOnCrash schedule,
// the crash state's stable-log LSNs, stable page LSNs and checkpoint
// bound must keep the digests below. A change that moves one of them
// breaks every recorded artifact.
func TestBuildCrashedDrawOrder(t *testing.T) {
	want := map[string]string{
		"genlsn+mv/0":         "04753f1df5b2a118",
		"genlsn+mv/1":         "e0db3c55b0636557",
		"genlsn+mv/2":         "e5c1d57f311d3724",
		"genlsn+mv/3":         "7b846c61a881ac92",
		"genlsn+mv/4":         "c16c61f81a88b8c3",
		"genlsn/0":            "7ae5b3d01e36894c",
		"genlsn/1":            "e0db3c55b0636557",
		"genlsn/2":            "e5c1d57f311d3724",
		"genlsn/3":            "7b846c61a881ac92",
		"genlsn/4":            "955fe968da71fb99",
		"grouplsn/0":          "fa5efe3eb9939319",
		"grouplsn/1":          "a75f5b8f1a49eb2d",
		"grouplsn/2":          "e5c1d57f311d3724",
		"grouplsn/3":          "de1af01d99fc3a3c",
		"grouplsn/4":          "4d4c6d67d8914872",
		"logical/0":           "74a41c86b90d6f30",
		"logical/1":           "a75f5b8f1a49eb2d",
		"logical/2":           "e5c1d57f311d3724",
		"logical/3":           "2e801d3cb61a7e64",
		"logical/4":           "e5c1d57f311d3724",
		"physical/0":          "aaf87cd793ae0f84",
		"physical/1":          "4961013caf4de7d5",
		"physical/2":          "fc05ddafc068224b",
		"physical/3":          "e08fdc4f122b7a19",
		"physical/4":          "3faba8edcd09be85",
		"physiological+dpt/0": "db6fa4d270965c03",
		"physiological+dpt/1": "9657167421737f27",
		"physiological+dpt/2": "e5c1d57f311d3724",
		"physiological+dpt/3": "df56a6d5c6564b52",
		"physiological+dpt/4": "df23b580123f3769",
		"physiological/0":     "db6fa4d270965c03",
		"physiological/1":     "9657167421737f27",
		"physiological/2":     "e5c1d57f311d3724",
		"physiological/3":     "df56a6d5c6564b52",
		"physiological/4":     "df23b580123f3769",
	}
	pages := workload.Pages(4)
	scheds := append([]sim.Sched(nil), scheduleProfiles...)
	for i := range scheds {
		scheds[i].Seed = int64(11 + i)
	}
	scheds = append(scheds, sim.Sched{Seed: 5, FlushProb: 0.5, ForceOnCrash: true})
	got := map[string]string{}
	for _, m := range sim.DefaultMethods() {
		ops, err := workload.ForMethod(m.Name, 24, pages, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range scheds {
			db, err := sim.BuildCrashed(m.New, workload.InitialState(pages), ops, 20, s, nil)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			for _, r := range db.StableLog().Records() {
				fmt.Fprintf(h, "%d,", r.LSN)
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
			bound, ok := db.CheckpointBound()
			fmt.Fprintf(h, "ck=%d/%v", bound, ok)
			got[fmt.Sprintf("%s/%d", m.Name, i)] = fmt.Sprintf("%016x", h.Sum64())
		}
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			t.Errorf("%s: digest %s, want %s", k, got[k], want[k])
		}
	}
}
