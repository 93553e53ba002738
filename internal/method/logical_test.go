package method

import (
	"testing"

	"redotheory/internal/model"
)

func TestLogicalCrashBetweenStageAndSwing(t *testing.T) {
	// Crash after staging but before the pointer swing: the staging area
	// is discarded, the previous stable state survives, and recovery
	// replays from the previous checkpoint.
	ps := pages(3)
	s0 := initialState(ps)
	db := NewLogical(s0)
	op1 := model.ReadWrite(1, "w1", ps, []model.Var{ps[0]})
	op2 := model.ReadWrite(2, "w2", ps, []model.Var{ps[1]})
	if err := db.Exec(op1); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	afterCk := db.StableState()
	if err := db.Exec(op2); err != nil {
		t.Fatal(err)
	}
	db.stageCheckpoint() // quiesce and stage — then the machine dies
	db.Crash()
	if !db.StableState().Equal(afterCk) {
		t.Fatal("a crash before the swing must leave the previous stable state intact")
	}
	res, err := Recover(db)
	if err != nil {
		t.Fatal(err)
	}
	if !res.State.Equal(oracle(db, s0)) {
		t.Errorf("recovered %v, want %v", res.State, oracle(db, s0))
	}
	// op2 was forced by stageCheckpoint, so it is in the stable log and
	// must be replayed; op1 is checkpoint-covered.
	if !res.RedoSet().Has(2) || res.RedoSet().Has(1) {
		t.Errorf("redo set = %v, want {2}", res.RedoSet())
	}
}

func TestLogicalSwingInstallsAtomically(t *testing.T) {
	ps := pages(2)
	s0 := initialState(ps)
	db := NewLogical(s0)
	// A multi-variable operation: both its writes must appear in the
	// stable state together or not at all.
	op := model.ReadWrite(1, "pair", ps, ps)
	if err := db.Exec(op); err != nil {
		t.Fatal(err)
	}
	db.stageCheckpoint()
	if !db.StableState().Equal(s0) {
		t.Fatal("staging leaked into the stable state")
	}
	db.completeCheckpoint()
	want := s0.Clone()
	mustApply(want, op)
	if !db.StableState().Equal(want) {
		t.Fatal("swing did not install the staged pages")
	}
	if db.shadow.Swings != 1 {
		t.Errorf("shadow swings = %d, want 1", db.shadow.Swings)
	}
}
