package redotheory_test

// Soak tests: long histories through every method with continuous
// auditing where applicable. Skipped under -short.

import (
	"math/rand"
	"testing"

	"redotheory/internal/btree"
	"redotheory/internal/method"
	"redotheory/internal/model"
	"redotheory/internal/sim"
	"redotheory/internal/workload"
)

func TestSoakAllMethodsLongHistory(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	pages := workload.Pages(24)
	rows := []struct {
		name   string
		mk     sim.Factory
		online bool
	}{
		{"logical", func(s *model.State) method.DB { return method.NewLogical(s) }, false},
		{"physical", func(s *model.State) method.DB { return method.NewPhysical(s) }, false},
		{"physiological", func(s *model.State) method.DB { return method.NewPhysiological(s) }, true},
		{"physiological+dpt", func(s *model.State) method.DB { return method.NewPhysiologicalDPT(s) }, true},
		{"genlsn", func(s *model.State) method.DB { return method.NewGenLSN(s) }, true},
		{"genlsn+mv", func(s *model.State) method.DB { return method.NewGenLSNMV(s) }, true},
	}
	const n = 2000
	for _, row := range rows {
		ops, err := workload.ForMethod(row.name, n, pages, 99)
		if err != nil {
			t.Fatal(err)
		}
		for _, crash := range []int{0, n / 3, 2 * n / 3, n} {
			res, err := sim.Run(sim.Cell{Method: sim.NamedFactory{Name: row.name, New: row.mk},
				Ops: ops, Pages: len(pages), Crash: crash, Sched: sim.DefaultSched(int64(crash) + 7),
				OnlineAudit: row.online,
			}, sim.MatrixLegs)
			if err != nil {
				t.Fatalf("%s crash=%d: %v", row.name, crash, err)
			}
			if !res.Recovered || !res.InvariantOK || !res.OnlineOK {
				t.Errorf("%s crash=%d: recovered=%v invariant=%v online=%v",
					row.name, crash, res.Recovered, res.InvariantOK, res.OnlineOK)
			}
		}
	}
}

func TestSoakBTreeLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	rng := rand.New(rand.NewSource(4))
	keys := make([]int64, 5000)
	for i := range keys {
		keys[i] = rng.Int63n(1 << 50)
	}
	for _, cfg := range []struct {
		strategy btree.SplitStrategy
		mk       func() method.DB
	}{
		{btree.PhysiologicalSplit, func() method.DB { return method.NewPhysiological(model.NewState()) }},
		{btree.GeneralizedSplit, func() method.DB { return method.NewGenLSN(model.NewState()) }},
		{btree.GeneralizedSplit, func() method.DB { return method.NewGenLSNMV(model.NewState()) }},
	} {
		db := cfg.mk()
		tr := btree.New(db, cfg.strategy, 16, 1)
		for i, k := range keys {
			if err := tr.Insert(k); err != nil {
				t.Fatalf("%s/%s: %v", db.Name(), cfg.strategy, err)
			}
			if i%7 == 0 {
				db.FlushOne()
			}
			if i%301 == 0 {
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		db.FlushLog()
		db.Crash()
		res, err := method.Recover(db)
		if err != nil {
			t.Fatalf("%s/%s: recover: %v", db.Name(), cfg.strategy, err)
		}
		rec := btree.New(&soakStateExec{s: res.State}, cfg.strategy, 16, 1)
		if err := rec.Validate(); err != nil {
			t.Fatalf("%s/%s: recovered tree invalid: %v", db.Name(), cfg.strategy, err)
		}
		got, err := rec.Keys()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != uniqueCount(keys) {
			t.Errorf("%s/%s: recovered %d keys, want %d", db.Name(), cfg.strategy, len(got), uniqueCount(keys))
		}
	}
}

type soakStateExec struct{ s *model.State }

func (e *soakStateExec) Read(x model.Var) model.Value { return e.s.Get(x) }
func (e *soakStateExec) Exec(op *model.Op) error      { _, err := e.s.Apply(op); return err }

func uniqueCount(ks []int64) int {
	seen := make(map[int64]bool, len(ks))
	for _, k := range ks {
		seen[k] = true
	}
	return len(seen)
}
