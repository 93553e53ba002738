package core

import (
	"sync"
	"testing"

	"redotheory/internal/graph"
	"redotheory/internal/model"
)

// TestCheckerOwnsItsGraphsAcrossAppend: a checker snapshots the log it
// was built from. Appending to the log afterwards changes neither its
// graphs nor its final state, and auditing the grown log against it is
// a log inconsistency; a checker built after the append sees the op.
func TestCheckerOwnsItsGraphsAcrossAppend(t *testing.T) {
	l := logOf(model.Incr(1, "x", 1), model.Incr(2, "y", 1))
	before, err := NewChecker(l, model.NewState())
	if err != nil {
		t.Fatal(err)
	}
	final := before.FinalState()
	l.Append(model.Incr(3, "x", 1))
	if n := before.Conflict().NumOps(); n != 2 {
		t.Errorf("checker built before the append has %d ops, want 2", n)
	}
	if !before.FinalState().Equal(final) {
		t.Errorf("final state moved with the log: %v, was %v", before.FinalState(), final)
	}
	rep := before.Check(model.NewState(), l, nil, func(*Record, Analysis) bool { return true }, nil, false)
	if rep.OK || rep.Violations[0].Kind != LogInconsistent {
		t.Errorf("grown log audited against the old checker: %s", rep.Summary())
	}
	after, err := NewChecker(l, model.NewState())
	if err != nil {
		t.Fatal(err)
	}
	if n := after.Conflict().NumOps(); n != 3 {
		t.Errorf("checker built after the append has %d ops, want 3", n)
	}
	if got := after.FinalState().Get("x"); got != model.IntVal(2) {
		t.Errorf("x = %v after two increments, want 2", got)
	}
}

// TestCheckerEmptyLog: with nothing logged the final state is the
// initial one, the empty installed set explains it, and a variable that
// differs from it is a missing log record.
func TestCheckerEmptyLog(t *testing.T) {
	s0 := model.StateOf(map[model.Var]model.Value{"x": model.IntVal(7)})
	ck, err := NewChecker(NewLog(), s0)
	if err != nil {
		t.Fatal(err)
	}
	if !ck.FinalState().Equal(s0) {
		t.Errorf("final state %v, want %v", ck.FinalState(), s0)
	}
	if rep := ck.CheckInstalled(s0, graph.NewSet[model.OpID]()); !rep.OK {
		t.Errorf("initial state rejected: %s", rep.Summary())
	}
	bad := model.StateOf(map[model.Var]model.Value{"x": model.IntVal(8)})
	rep := ck.CheckInstalled(bad, graph.NewSet[model.OpID]())
	if rep.OK || rep.Violations[0].Kind != ExposedMismatch || rep.Violations[0].Var != "x" {
		t.Errorf("unlogged update accepted or misreported: %s", rep.Summary())
	}
}

// TestCheckersConcurrentOnOneLog: checkers built concurrently over one
// shared log own their graphs and ledgers, so they agree without
// sharing mutable state (run under -race).
func TestCheckersConcurrentOnOneLog(t *testing.T) {
	l := logOf(model.Incr(1, "x", 1), model.CopyPlus(2, "y", "x", 1), model.Incr(3, "x", 1))
	state := model.StateOf(map[model.Var]model.Value{"x": model.IntVal(1), "y": model.IntVal(2)})
	installed := graph.NewSet[model.OpID](1, 2)
	var wg sync.WaitGroup
	oks := make([]bool, 8)
	for i := range oks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ck, err := NewChecker(l, model.StateOf(map[model.Var]model.Value{"x": model.IntVal(0)}))
			if err != nil {
				t.Error(err)
				return
			}
			oks[i] = ck.CheckInstalled(state, installed).OK && ck.FinalState().Get("x") == model.IntVal(2)
		}(i)
	}
	wg.Wait()
	for i, ok := range oks {
		if !ok {
			t.Errorf("checker %d disagreed", i)
		}
	}
}
