package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"redotheory/internal/graph"
	"redotheory/internal/model"
)

// TestLogNeedsOnlyConflictOrder renders Section 4.1's observation
// executable: "It is not necessary to have a totally ordered log
// reflecting the exact execution order... Only conflicting logged
// operations need to be ordered." A log written in any conflict-
// consistent permutation of the execution order validates against the
// conflict graph and recovers the same final state.
func TestLogNeedsOnlyConflictOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := randomOps(rng, 12, 4)
		s0 := randomState(rng, 4)
		execLog := logOf(ops...)
		ck, err := NewChecker(execLog, s0)
		if err != nil {
			return false
		}
		want := ck.FinalState()

		// Re-log in a random conflict-consistent order.
		shuffled := NewLog()
		indeg := make(map[model.OpID]int)
		var ready []*model.Op
		dag := ck.Conflict().DAG()
		for _, id := range dag.Nodes() {
			indeg[id] = dag.InDegree(id)
			if indeg[id] == 0 {
				ready = append(ready, ck.Conflict().Op(id))
			}
		}
		for len(ready) > 0 {
			i := rng.Intn(len(ready))
			op := ready[i]
			ready = append(ready[:i], ready[i+1:]...)
			shuffled.Append(op)
			for _, s := range dag.Succs(op.ID()) {
				indeg[s]--
				if indeg[s] == 0 {
					ready = append(ready, ck.Conflict().Op(s))
				}
			}
		}
		if err := shuffled.ValidateAgainst(ck.Conflict()); err != nil {
			return false
		}
		replayAll := func(*Record, Analysis) bool { return true }
		res, err := Recover(Survivors{State: s0.Clone(), Log: shuffled, Redo: replayAll})
		if err != nil {
			return false
		}
		return res.State.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestCheckpointNeedNotBePrefix renders Section 4.2's remark executable:
// "The checkpointed log records usually constitute a prefix of the log,
// but that is not required." Scenario 2's installed set {A} is not a log
// prefix, yet handing it to recovery as the checkpoint works.
func TestCheckpointNeedNotBePrefix(t *testing.T) {
	b := model.AssignConst(1, "y", model.IntVal(2))
	a := model.CopyPlus(2, "x", "y", 1)
	l := logOf(b, a)
	ck, err := NewChecker(l, model.NewState())
	if err != nil {
		t.Fatal(err)
	}
	state := model.StateOf(map[model.Var]model.Value{"x": model.IntVal(3)})
	// Checkpoint covers only the later record.
	checkpoint := graph.NewSet[model.OpID](2)
	replayRest := func(*Record, Analysis) bool { return true }
	rep := ck.Check(state, l, checkpoint, replayRest, nil, true)
	if !rep.OK {
		t.Fatalf("non-prefix checkpoint rejected: %s", rep.Summary())
	}
	res, err := Recover(Survivors{State: state.Clone(), Log: l, Checkpoint: checkpoint, Redo: replayRest})
	if err != nil {
		t.Fatal(err)
	}
	if !res.State.Equal(ck.FinalState()) {
		t.Errorf("recovered %v, want %v", res.State, ck.FinalState())
	}
	if res.Examined != 1 {
		t.Errorf("examined %d records, want 1 (B only)", res.Examined)
	}
}
