package partition_test

import (
	"fmt"
	"math/rand"
	"testing"

	"redotheory/internal/core"
	"redotheory/internal/model"
	"redotheory/internal/partition"
)

// randomAccessLog builds a log of n operations over the given variables with
// random read/write sets (1–3 writes, 0–3 reads each), the access
// pattern space both planners must agree on.
func randomAccessLog(n, vars int, seed int64) *core.Log {
	rng := rand.New(rand.NewSource(seed))
	names := make([]model.Var, vars)
	for i := range names {
		names[i] = model.Var(fmt.Sprintf("v%d", i))
	}
	pick := func(k int) []model.Var {
		if k > len(names) {
			k = len(names)
		}
		out := make([]model.Var, 0, k)
		seen := make(map[model.Var]bool, k)
		for len(out) < k {
			v := names[rng.Intn(len(names))]
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
		return out
	}
	l := core.NewLog()
	for i := 0; i < n; i++ {
		l.Append(model.ReadWrite(model.OpID(i+1), fmt.Sprintf("op%d", i+1),
			pick(rng.Intn(4)), pick(1+rng.Intn(3))))
	}
	return l
}

// TestFromViewsMatchesFromRecords: the dense planner must compute the
// identical partition to the map-based one — same components in the
// same order, same record schedules, same written variables — across
// random access patterns and random replay subsets. This is the
// correspondence the dense parallel engine's correctness reduces to.
func TestFromViewsMatchesFromRecords(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		l := randomAccessLog(30, 2+int(seed)%7, seed)
		lv := core.NewLogView(l)
		rng := rand.New(rand.NewSource(seed * 31))

		// Replay a random subset of the log, in LSN order — as the
		// decision phase yields it. Include the full-log case.
		var records []*core.Record
		var replayIdx []int
		for i, r := range l.Records() {
			if seed%5 == 0 || rng.Float64() < 0.7 {
				records = append(records, r)
				replayIdx = append(replayIdx, i)
			}
		}

		want := partition.FromRecords(records)
		got := partition.FromViews(lv.Views, replayIdx, lv.In.Len())

		if got.Ops != want.Ops {
			t.Fatalf("seed %d: dense plan schedules %d ops, map plan %d", seed, got.Ops, want.Ops)
		}
		if gs, ws := got.Stats(), want.Stats(); gs != ws {
			t.Fatalf("seed %d: dense stats %+v, map stats %+v", seed, gs, ws)
		}
		if len(got.Components) != len(want.Components) {
			t.Fatalf("seed %d: %d dense components, %d map components", seed, len(got.Components), len(want.Components))
		}
		for ci, wc := range want.Components {
			gc := got.Components[ci]
			if len(gc.Idx) != len(wc.Records) {
				t.Fatalf("seed %d component %d: %d dense records, %d map records", seed, ci, len(gc.Idx), len(wc.Records))
			}
			for k, idx := range gc.Idx {
				if lv.Views[idx].Rec != wc.Records[k] {
					t.Fatalf("seed %d component %d position %d: dense schedules LSN %d, map schedules LSN %d",
						seed, ci, k, lv.Views[idx].Rec.LSN, wc.Records[k].LSN)
				}
			}
			if len(gc.Writes) != len(wc.Writes) {
				t.Fatalf("seed %d component %d: %d dense writes, %d map writes", seed, ci, len(gc.Writes), len(wc.Writes))
			}
			for k, id := range gc.Writes {
				if !wc.Writes.Has(lv.In.Var(id)) {
					t.Fatalf("seed %d component %d: dense writes %q, absent from map component", seed, ci, lv.In.Var(id))
				}
				if k > 0 && gc.Writes[k-1] >= id {
					t.Fatalf("seed %d component %d: Writes not strictly ascending at %d", seed, ci, k)
				}
			}
		}
		// The component table interleaves the components' schedules back
		// into the replay list: walking it in log order visits every
		// component's records in its own order, each exactly once.
		next := make([]int, len(got.Components))
		for i, vi := range got.Idx {
			if vi != replayIdx[i] {
				t.Fatalf("seed %d: plan Idx[%d] = %d, replay list has %d", seed, i, vi, replayIdx[i])
			}
			ci := got.Of[i]
			if c := got.Components[ci]; next[ci] >= len(c.Idx) || c.Idx[next[ci]] != vi {
				t.Fatalf("seed %d: Of[%d] = %d, but record %d is not that component's next", seed, i, ci, vi)
			}
			next[ci]++
		}
		for ci, c := range got.Components {
			if next[ci] != len(c.Idx) {
				t.Fatalf("seed %d component %d: table names %d of its %d records", seed, ci, next[ci], len(c.Idx))
			}
		}
	}
}

// TestFromViewsEmptyReplay: an empty replay set plans to nothing.
func TestFromViewsEmptyReplay(t *testing.T) {
	l := randomAccessLog(5, 3, 1)
	lv := core.NewLogView(l)
	p := partition.FromViews(lv.Views, nil, lv.In.Len())
	if p.Ops != 0 || len(p.Components) != 0 {
		t.Fatalf("empty replay planned %d ops in %d components", p.Ops, len(p.Components))
	}
	if p.MaxComponentLen() != 0 {
		t.Fatalf("empty plan has critical path %d", p.MaxComponentLen())
	}
}

// TestWriterReaderIndexes: the serve-engine gate indexes must invert
// the plan exactly — WriterIndex maps a variable to the unique
// component writing it (components write disjoint variables) and
// ReaderIndex lists, without duplicates, exactly the components whose
// replay reads the variable without writing it.
func TestWriterReaderIndexes(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		l := randomAccessLog(30, 2+int(seed)%7, seed)
		lv := core.NewLogView(l)
		replayIdx := make([]int, l.Len())
		for i := range replayIdx {
			replayIdx[i] = i
		}
		p := partition.FromViews(lv.Views, replayIdx, lv.In.Len())
		writer := p.WriterIndex(lv.In.Len())
		readers := p.ReaderIndex(lv.Views, lv.In.Len())

		wantWriter := make([]int32, lv.In.Len())
		for i := range wantWriter {
			wantWriter[i] = -1
		}
		wantReaders := make([]map[int32]bool, lv.In.Len())
		for ci, c := range p.Components {
			for _, id := range c.Writes {
				if wantWriter[id] != -1 {
					t.Fatalf("seed %d: variable %d written by components %d and %d", seed, id, wantWriter[id], ci)
				}
				wantWriter[id] = int32(ci)
			}
			for _, vi := range c.Idx {
				for _, id := range lv.Views[vi].Reads {
					if wantReaders[id] == nil {
						wantReaders[id] = map[int32]bool{}
					}
					wantReaders[id][int32(ci)] = true
				}
			}
		}
		for id := 0; id < lv.In.Len(); id++ {
			if writer[id] != wantWriter[id] {
				t.Fatalf("seed %d: writer[%d] = %d, want %d", seed, id, writer[id], wantWriter[id])
			}
			seen := map[int32]bool{}
			for _, ci := range readers[id] {
				if seen[ci] {
					t.Fatalf("seed %d: readers[%d] lists component %d twice", seed, id, ci)
				}
				seen[ci] = true
				if ci == writer[id] {
					t.Fatalf("seed %d: readers[%d] lists its own writer %d", seed, id, ci)
				}
				if !wantReaders[id][ci] {
					t.Fatalf("seed %d: readers[%d] lists component %d, which never reads it", seed, id, ci)
				}
			}
			for ci := range wantReaders[id] {
				if ci != writer[id] && !seen[ci] {
					t.Fatalf("seed %d: readers[%d] misses reading component %d", seed, id, ci)
				}
			}
		}
	}
}
