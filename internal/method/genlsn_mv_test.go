package method

import (
	"math/rand"
	"testing"
	"testing/quick"

	"redotheory/internal/model"
)

func TestGenLSNMVCrashRecoveryProperty(t *testing.T) {
	f := func(seed int64) bool {
		return crashDance(t, rand.New(rand.NewSource(seed)),
			func(s *model.State) DB { return NewGenLSNMV(s) }, readManyWriteOneMk)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// crosswise builds the deadlock shape: O1 reads r writes w, O2 reads w
// writes r, O3 reads r writes w — the newest versions of w and r block
// each other.
func crosswise() []*model.Op {
	return []*model.Op{
		model.ReadWrite(1, "o1", []model.Var{"r"}, []model.Var{"w"}),
		model.ReadWrite(2, "o2", []model.Var{"w"}, []model.Var{"r"}),
		model.ReadWrite(3, "o3", []model.Var{"r"}, []model.Var{"w"}),
	}
}

func TestGenLSNSingleCopyStallsOnCrosswiseDeps(t *testing.T) {
	s0 := model.StateOf(map[model.Var]model.Value{"r": "10", "w": "20"})
	db := NewGenLSN(s0)
	for _, op := range crosswise() {
		if err := db.Exec(op); err != nil {
			t.Fatal(err)
		}
	}
	// The single-copy cache cannot install anything: w@3 waits for r@2,
	// r@2 waits for w@1, and only the newest versions exist.
	if db.FlushOne() {
		t.Fatal("single-copy cache made progress through a dependency cycle")
	}
	// Recovery still works — the log has everything.
	db.FlushLog()
	db.Crash()
	res, err := Recover(db)
	if err != nil {
		t.Fatal(err)
	}
	if !res.State.Equal(oracle(db, s0)) {
		t.Error("state wrong")
	}
	if len(res.RedoSet()) != 3 {
		t.Errorf("all 3 ops should need replay, got %v", res.RedoSet())
	}
}

func TestGenLSNMVDrainsCrosswiseDeps(t *testing.T) {
	s0 := model.StateOf(map[model.Var]model.Value{"r": "10", "w": "20"})
	db := NewGenLSNMV(s0)
	if db.Name() != "genlsn+mv" {
		t.Fatalf("name = %q", db.Name())
	}
	for _, op := range crosswise() {
		if err := db.Exec(op); err != nil {
			t.Fatal(err)
		}
	}
	// Version-at-a-time installation drains the whole cache: w's old
	// version (LSN 1) first, then r (LSN 2), then w again (LSN 3).
	steps := 0
	for db.FlushOne() {
		steps++
		if steps > 10 {
			t.Fatal("flush loop did not terminate")
		}
	}
	if steps != 3 {
		t.Errorf("drained in %d installs, want 3 (one per version)", steps)
	}
	if got := db.StableState(); !got.Equal(oracle(db, s0)) {
		// Everything installed: the stable state is the full history's
		// state (all ops logged are stable after the WAL forces).
		t.Errorf("stable = %v, want %v", got, oracle(db, s0))
	}
	// Nothing left to redo.
	db.Crash()
	res, err := Recover(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RedoSet()) != 0 {
		t.Errorf("redo set = %v, want empty", res.RedoSet())
	}
}

func TestGenLSNMVInvariantThroughPartialDrains(t *testing.T) {
	// After every single version install, a crash must leave an
	// explainable state: run the crosswise workload, flush k times,
	// crash, recover, compare.
	for k := 0; k <= 3; k++ {
		s0 := model.StateOf(map[model.Var]model.Value{"r": "10", "w": "20"})
		db := NewGenLSNMV(s0)
		for _, op := range crosswise() {
			if err := db.Exec(op); err != nil {
				t.Fatal(err)
			}
		}
		db.FlushLog()
		for i := 0; i < k; i++ {
			if !db.FlushOne() {
				t.Fatalf("k=%d: flush %d made no progress", k, i)
			}
		}
		db.Crash()
		res, err := Recover(db)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !res.State.Equal(oracle(db, s0)) {
			t.Errorf("k=%d: recovery diverged", k)
		}
	}
}
