package method

import (
	"math/rand"
	"testing"
	"testing/quick"

	"redotheory/internal/model"
)

func TestGroupLSNCrashRecoveryProperty(t *testing.T) {
	f := func(seed int64) bool {
		return crashDance(t, rand.New(rand.NewSource(seed)),
			func(s *model.State) DB { return NewGroupLSN(s) }, anyShapeMk)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestGroupLSNMultiPageOpInstallsAtomically(t *testing.T) {
	// A transfer writes two pages; after any single FlushOne, stable
	// storage holds both or neither of its effects.
	ps := pages(3)
	s0 := initialState(ps)
	db := NewGroupLSN(s0)
	xfer := model.ReadWrite(1, "xfer", []model.Var{ps[0], ps[1]}, []model.Var{ps[0], ps[1]})
	if err := db.Exec(xfer); err != nil {
		t.Fatal(err)
	}
	if !db.FlushOne() {
		t.Fatal("nothing flushed")
	}
	l0, l1 := db.store.PageLSN(ps[0]), db.store.PageLSN(ps[1])
	if l0 != 1 || l1 != 1 {
		t.Fatalf("pages installed separately: LSNs %d, %d", l0, l1)
	}
	if db.MaxGroupSize != 2 || db.GroupFlushes != 1 {
		t.Errorf("group stats: size=%d flushes=%d", db.MaxGroupSize, db.GroupFlushes)
	}
	db.Crash()
	res, err := Recover(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RedoSet()) != 0 {
		t.Errorf("installed transfer replayed: %v", res.RedoSet())
	}
	if !res.State.Equal(oracle(db, s0)) {
		t.Error("state wrong")
	}
}

func TestGroupLSNCollapseGrowsGroups(t *testing.T) {
	// Section 5's warning: two transfers sharing a page chain their
	// atomicity obligations, so the flush group spans all three pages.
	ps := pages(3)
	s0 := initialState(ps)
	db := NewGroupLSN(s0)
	if err := db.Exec(model.ReadWrite(1, "t1", nil, []model.Var{ps[0], ps[1]})); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(model.ReadWrite(2, "t2", nil, []model.Var{ps[1], ps[2]})); err != nil {
		t.Fatal(err)
	}
	got := db.closure(ps[0])
	if len(got) != 3 {
		t.Fatalf("closure = %v, want all three pages", got)
	}
	if !db.FlushOne() {
		t.Fatal("flush failed")
	}
	if db.MaxGroupSize != 3 {
		t.Errorf("MaxGroupSize = %d, want 3", db.MaxGroupSize)
	}
	db.Crash()
	res, err := Recover(db)
	if err != nil {
		t.Fatal(err)
	}
	if !res.State.Equal(oracle(db, s0)) {
		t.Error("state wrong")
	}
}

func TestGroupLSNSection5EFGAtEnd(t *testing.T) {
	// E: x←y+1, F: y←x+1, G: x←x+1 — the crosswise dependencies block
	// every single-page closure, so the cache falls back to one atomic
	// group of both pages, installing E, F, and G together (the paper's
	// Section 5 resolution).
	s0 := model.StateOf(map[model.Var]model.Value{"x": model.IntVal(0), "y": model.IntVal(0)})
	db := NewGroupLSN(s0)
	for _, op := range []*model.Op{
		model.CopyPlus(1, "x", "y", 1),
		model.CopyPlus(2, "y", "x", 1),
		model.Incr(3, "x", 1),
	} {
		if err := db.Exec(op); err != nil {
			t.Fatal(err)
		}
	}
	if !db.FlushOne() {
		t.Fatal("group fallback did not fire")
	}
	if db.store.PageLSN("x") != 3 || db.store.PageLSN("y") != 2 {
		t.Fatalf("LSNs = x:%d y:%d, want 3,2", db.store.PageLSN("x"), db.store.PageLSN("y"))
	}
	if db.MaxGroupSize != 2 {
		t.Errorf("MaxGroupSize = %d, want 2", db.MaxGroupSize)
	}
	s := db.StableState()
	if model.AsInt(s.Get("x")) != 2 || model.AsInt(s.Get("y")) != 2 {
		t.Errorf("stable = %v, want x=2 y=2", s)
	}
	db.Crash()
	res, err := Recover(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RedoSet()) != 0 {
		t.Errorf("redo set = %v, want empty after atomic install", res.RedoSet())
	}
}

func TestGroupLSNBankTransfersSweep(t *testing.T) {
	// Transfers (two-page write sets) at every crash point: recovery must
	// always conserve and match the oracle.
	ps := pages(4)
	s0 := initialState(ps)
	rng := rand.New(rand.NewSource(31))
	ops := make([]*model.Op, 20)
	for i := range ops {
		a, b := ps[rng.Intn(len(ps))], ps[rng.Intn(len(ps))]
		for b == a {
			b = ps[rng.Intn(len(ps))]
		}
		ops[i] = model.ReadWrite(model.OpID(i+1), "xfer", []model.Var{a, b}, []model.Var{a, b})
	}
	for crash := 0; crash <= len(ops); crash++ {
		db := NewGroupLSN(s0)
		for i := 0; i < crash; i++ {
			if err := db.Exec(ops[i]); err != nil {
				t.Fatal(err)
			}
			if i%3 == 0 {
				db.FlushOne()
			}
			if i%7 == 0 {
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		db.Crash()
		res, err := Recover(db)
		if err != nil {
			t.Fatalf("crash %d: %v", crash, err)
		}
		if !res.State.Equal(oracle(db, s0)) {
			t.Fatalf("crash %d: state diverged", crash)
		}
	}
}

func TestGroupLSNCrashDuringRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	ps := pages(4)
	s0 := initialState(ps)
	db := NewGroupLSN(s0)
	for i := 1; i <= 18; i++ {
		if err := db.Exec(anyShapeMk(model.OpID(i*10), rng, ps)); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(3) == 0 {
			db.FlushOne()
		}
	}
	db.FlushLog()
	db.Crash()
	final := crashingRecoveryToFixpoint(t, db, s0, rng)
	if !final.Equal(oracle(db, s0)) {
		t.Error("fixpoint diverges from oracle")
	}
}
