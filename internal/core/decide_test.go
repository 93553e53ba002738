package core

import (
	"testing"

	"redotheory/internal/graph"
	"redotheory/internal/model"
)

// decideFixture builds a small log plus a state-blind redo test with a
// recording analysis function, so DecideRedo can be compared against
// Recover call for call.
func decideFixture() (*model.State, *Log, graph.Set[model.OpID], RedoTest, AnalyzeFunc, *int) {
	s := model.NewState()
	s.SetInt("x", 10)
	s.SetInt("y", 20)
	l := logOf(
		model.Incr(1, "x", 1),
		model.Incr(2, "y", 2),
		model.CopyPlus(3, "x", "y", 3),
		model.Incr(4, "y", 4),
	)
	checkpoint := graph.NewSet[model.OpID](1)
	// State-blind: decides from the operation id alone (a stand-in for
	// the LSN comparisons the real methods make).
	redo := func(op *model.Op, _ *model.State, _ *Log, analysis Analysis) bool {
		return op.ID() >= analysis.(model.OpID)
	}
	calls := new(int)
	analyze := func(*model.State, *Log, graph.Set[model.OpID]) Analysis {
		*calls++
		return model.OpID(3)
	}
	return s, l, checkpoint, redo, analyze, calls
}

func TestDecideRedoMatchesRecoverDecisions(t *testing.T) {
	s, l, cp, redo, analyze, decideCalls := decideFixture()
	d := DecideRedo(s.Clone(), l, cp, redo, analyze)

	if got := []model.OpID{3, 4}; len(d.Replay) != 2 || d.Replay[0].Op.ID() != got[0] || d.Replay[1].Op.ID() != got[1] {
		t.Fatalf("Replay = %v", d.Replay)
	}
	if !d.RedoSet.Has(3) || !d.RedoSet.Has(4) || len(d.RedoSet) != 2 {
		t.Errorf("RedoSet = %v", d.RedoSet)
	}
	if !d.Installed.Has(1) || !d.Installed.Has(2) || len(d.Installed) != 2 {
		t.Errorf("Installed = %v", d.Installed)
	}
	if d.Examined != 3 { // op 1 is checkpointed, not examined
		t.Errorf("Examined = %d, want 3", d.Examined)
	}

	// The same scan drives Recover: same sets, same analysis call count.
	recCalls := *decideCalls
	rec, err := Recover(s.Clone(), l, cp, redo, analyze)
	if err != nil {
		t.Fatal(err)
	}
	if *decideCalls-recCalls != recCalls {
		t.Errorf("analysis called %d times by Recover, %d by DecideRedo", *decideCalls-recCalls, recCalls)
	}
	if len(rec.RedoSet) != len(d.RedoSet) || rec.Examined != d.Examined {
		t.Errorf("Recover decided differently: redo %v examined %d", rec.RedoSet, rec.Examined)
	}
}

func TestDecideRedoDoesNotTouchState(t *testing.T) {
	s, l, cp, redo, analyze, _ := decideFixture()
	before := s.Clone()
	DecideRedo(s, l, cp, redo, analyze)
	if !s.Equal(before) {
		t.Errorf("DecideRedo mutated the state: %v", s.Diff(before))
	}
}

func TestSameOutcomeAcceptsIdenticalResults(t *testing.T) {
	s, l, cp, redo, analyze, _ := decideFixture()
	a, err := Recover(s.Clone(), l, cp, redo, analyze)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Recover(s.Clone(), l, cp, redo, analyze)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SameOutcome(b); err != nil {
		t.Errorf("identical recoveries judged different: %v", err)
	}
}

func TestSameOutcomeDetectsEveryDivergence(t *testing.T) {
	s, l, cp, redo, analyze, _ := decideFixture()
	mk := func() *Result {
		r, err := Recover(s.Clone(), l, cp, redo, analyze)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	stateDiff := mk()
	stateDiff.State.SetInt("x", 999)
	if err := mk().SameOutcome(stateDiff); err == nil {
		t.Error("state divergence not detected")
	}

	redoDiff := mk()
	redoDiff.RedoSet.Add(2)
	if err := mk().SameOutcome(redoDiff); err == nil {
		t.Error("redo-set divergence not detected")
	}

	orderDiff := mk()
	orderDiff.Replayed[0], orderDiff.Replayed[1] = orderDiff.Replayed[1], orderDiff.Replayed[0]
	if err := mk().SameOutcome(orderDiff); err == nil {
		t.Error("replay-order divergence not detected")
	}

	examDiff := mk()
	examDiff.Examined++
	if err := mk().SameOutcome(examDiff); err == nil {
		t.Error("examined-count divergence not detected")
	}

	if err := mk().SameOutcome(nil); err == nil {
		t.Error("nil result not detected")
	}
}
