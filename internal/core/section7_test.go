package core

import (
	"testing"

	"redotheory/internal/graph"
	"redotheory/internal/model"
)

// TestRedoSetLargerThanNecessary renders Section 7's closing observation
// executable: recovery may replay operations that are already installed,
// and may even replay operations whose writes land on unexposed
// variables with values different from the original execution — as long
// as the installed complement still forms an explaining prefix. Here the
// history is X: x←3, A: z←x+1, B: z←7 (blind), fully installed; a redo
// test that needlessly replays A and B is harmless: A rewrites z to 4,
// B's blind write restores 7, and the complement {X} explains the final
// state because z is unexposed by it (A writes z without reading it).
func TestRedoSetLargerThanNecessary(t *testing.T) {
	x := model.AssignConst(1, "x", model.IntVal(3))
	a := model.CopyPlus(2, "z", "x", 1)
	b := model.AssignConst(3, "z", model.IntVal(7))
	l := NewLog()
	for _, op := range []*model.Op{x, a, b} {
		l.Append(op)
	}
	ck, err := NewChecker(l, model.NewState())
	if err != nil {
		t.Fatal(err)
	}
	final := ck.FinalState() // {x=3 z=7}
	// Everything is installed; an over-eager redo test replays A and B.
	overEager := func(r *Record, _ Analysis) bool {
		return r.Op.ID() != 1
	}
	rep := ck.Check(final.Clone(), l, graph.NewSet[model.OpID](), overEager, nil, true)
	if !rep.OK {
		t.Fatalf("over-eager redo set rejected: %s", rep.Summary())
	}
	res, err := Recover(Survivors{State: final.Clone(), Log: l, Redo: overEager})
	if err != nil {
		t.Fatal(err)
	}
	if !res.State.Equal(final) {
		t.Errorf("recovered %v, want %v", res.State, final)
	}
	if len(res.RedoSet()) != 2 {
		t.Errorf("redo set = %v, want {A,B}", res.RedoSet())
	}

	// The same latitude does NOT extend to replaying A alone: {X,B} is a
	// prefix of the installation graph but does not explain the state
	// mid-replay... more precisely, replaying only A rewrites z to 4 and
	// nothing restores it, and the checker's end-to-end verification
	// catches the divergence.
	onlyA := func(r *Record, _ Analysis) bool {
		return r.Op.ID() == 2
	}
	rep = ck.Check(final.Clone(), l, graph.NewSet[model.OpID](), onlyA, nil, true)
	if rep.OK {
		t.Error("replaying A without B accepted; it corrupts z")
	}
}

// TestPhysicalStyleFullReplayAlwaysSafe is the blanket version: with a
// history of blind writes, replaying every operation from any
// explainable state is idempotent.
func TestPhysicalStyleFullReplayAlwaysSafe(t *testing.T) {
	l := NewLog()
	for i := 1; i <= 10; i++ {
		v := model.Var([]string{"p", "q", "r"}[i%3])
		l.Append(model.AssignConst(model.OpID(i), v, model.IntVal(int64(i*11))))
	}
	ck, err := NewChecker(l, model.NewState())
	if err != nil {
		t.Fatal(err)
	}
	final := ck.FinalState()
	replayAll := func(*Record, Analysis) bool { return true }
	// From the final state (everything installed) and from the initial
	// state (nothing installed), full replay lands on the final state.
	for _, start := range []*model.State{final.Clone(), model.NewState()} {
		res, err := Recover(Survivors{State: start, Log: l, Redo: replayAll})
		if err != nil {
			t.Fatal(err)
		}
		if !res.State.Equal(final) {
			t.Errorf("full replay from %v diverged", start)
		}
	}
}
