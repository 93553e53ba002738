package core

import (
	"strings"
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
	redo := func(r *Record, analysis Analysis) bool {
		return r.Op.ID() >= analysis.(model.OpID)
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

	// ops 3 and 4 sit at log positions 2 and 3.
	if len(d.ReplayIdx) != 2 || d.ReplayIdx[0] != 2 || d.ReplayIdx[1] != 3 {
		t.Fatalf("ReplayIdx = %v", d.ReplayIdx)
	}
	res := d.Result(s)
	if got := res.Replayed; len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Fatalf("Replayed = %v", got)
	}
	if redo := res.RedoSet(); !redo.Has(3) || !redo.Has(4) || len(redo) != 2 {
		t.Errorf("RedoSet = %v", redo)
	}
	if inst := res.Installed(); !inst.Has(1) || !inst.Has(2) || len(inst) != 2 {
		t.Errorf("Installed = %v", inst)
	}
	if d.Examined != 3 { // op 1 is checkpointed, not examined
		t.Errorf("Examined = %d, want 3", d.Examined)
	}

	// The same scan drives Recover: same sets, same analysis call count.
	recCalls := *decideCalls
	rec, err := Recover(Survivors{s.Clone(), l, cp, redo, analyze})
	if err != nil {
		t.Fatal(err)
	}
	if *decideCalls-recCalls != recCalls {
		t.Errorf("analysis called %d times by Recover, %d by DecideRedo", *decideCalls-recCalls, recCalls)
	}
	if err := rec.SameOutcome(d.Result(rec.State)); err != nil {
		t.Errorf("Recover decided differently: %v", err)
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
	a, err := Recover(Survivors{s.Clone(), l, cp, redo, analyze})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Recover(Survivors{s.Clone(), l, cp, redo, analyze})
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
		r, err := Recover(Survivors{s.Clone(), l, cp, redo, analyze})
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

	// Listing op 2 as replayed moves it from the installed set to the
	// redo set and touches nothing SameOutcome compares before them.
	redoDiff := mk()
	redoDiff.Replayed = []model.OpID{2, 3, 4}
	if err := mk().SameOutcome(redoDiff); err == nil || !strings.Contains(err.Error(), "redo sets differ") {
		t.Errorf("redo-set divergence not detected: %v", err)
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
