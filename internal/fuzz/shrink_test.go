package fuzz

import (
	"testing"

	"redotheory/internal/model"
	"redotheory/internal/sim"
)

// twoWritesBug is the synthetic oracle bug the shrink tests plant: a
// cell "fails" when at least two executed operations write pg00. The
// minimal failing cell is therefore exactly two operations, both
// crashing-side writers of pg00, under any schedule — which is what the
// shrinker must find.
func twoWritesBug(ops []*model.Op, crash int) string {
	n := 0
	for _, op := range ops[:crash] {
		if op.WritesVar("pg00") {
			n++
		}
	}
	if n >= 2 {
		return "synthetic: two writes to pg00 before the crash"
	}
	return ""
}

// TestShrinkMinimizesInjectedBug is the acceptance check for the
// shrinker: fed a failing cell from the planted oracle bug, it must
// produce a minimized repro of at most 8 operations (here: exactly 2),
// with the crash point at the end of the kept prefix and the schedule
// simplified to silence.
func TestShrinkMinimizesInjectedBug(t *testing.T) {
	rep, err := Run(Config{Seeds: 1, Histories: 1, MaxOps: 12, Shrink: true, failCheck: twoWritesBug})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) == 0 {
		t.Fatal("planted bug produced no failures")
	}
	for _, f := range rep.Failures {
		min := f.Minimized
		if min == nil {
			t.Fatalf("failure %s was not shrunk", f.Cell.String())
		}
		if len(min.Ops) > 8 {
			t.Fatalf("minimized history has %d ops, want ≤ 8", len(min.Ops))
		}
		if len(min.Ops) != 2 {
			t.Errorf("minimized history has %d ops, the planted bug needs exactly 2", len(min.Ops))
		}
		if min.Crash != len(min.Ops) {
			t.Errorf("minimized crash %d is not the full kept prefix (%d ops)", min.Crash, len(min.Ops))
		}
		for _, op := range min.Ops {
			if !op.WritesVar("pg00") {
				t.Errorf("minimized history keeps an irrelevant op %s", op)
			}
		}
		if s := min.Sched; s.FlushProb != 0 || s.ForceProb != 0 || s.CheckpointProb != 0 || s.TruncateProb != 0 {
			t.Errorf("schedule was not silenced: %+v", s)
		}
		// The minimized cell still fails under re-execution.
		res, _, err := check(*min, sim.CleanLegs, twoWritesBug)
		if err != nil {
			t.Fatal(err)
		}
		if res.OK() {
			t.Fatalf("minimized cell does not reproduce the failure")
		}
	}
}

// TestShrinkIsDeterministic runs the shrinker twice over the same
// failing cell and requires identical minimized cells.
func TestShrinkIsDeterministic(t *testing.T) {
	cell := mkCell(t, "physical", 12, 12, scheduleProfiles[0])
	cell.Sched.Seed = 99
	a := Shrink(cell, sim.CleanLegs, twoWritesBug)
	b := Shrink(cell, sim.CleanLegs, twoWritesBug)
	if a == nil || b == nil {
		t.Fatal("shrink did not reproduce the failure")
	}
	if a.Crash != b.Crash || len(a.Ops) != len(b.Ops) || a.Sched != b.Sched {
		t.Fatalf("shrink diverges:\n%+v\n%+v", a, b)
	}
	for i := range a.Ops {
		if a.Ops[i].ID() != b.Ops[i].ID() {
			t.Fatalf("shrunk op lists diverge at %d", i)
		}
	}
}

// TestShrinkReturnsNilOnNonFailure: a cell that passes the oracle is not
// shrinkable.
func TestShrinkReturnsNilOnNonFailure(t *testing.T) {
	cell := mkCell(t, "physiological", 6, 6, scheduleProfiles[0])
	cell.Sched.Seed = 5
	if got := Shrink(cell, sim.CleanLegs, nil); got != nil {
		t.Fatalf("shrinking a passing cell returned %+v", got)
	}
}

// TestDDMinProperties drives ddmin directly with a predicate over op
// IDs: the result must still fail and be 1-minimal under chunk removal
// for the simple "contains ops 3 and 7" predicate.
func TestDDMinProperties(t *testing.T) {
	var ops []*model.Op
	for i := 1; i <= 12; i++ {
		ops = append(ops, model.ReadWrite(model.OpID(i), "u", nil, []model.Var{"x"}))
	}
	fails := func(cand []*model.Op) bool {
		has := map[model.OpID]bool{}
		for _, op := range cand {
			has[op.ID()] = true
		}
		return has[3] && has[7]
	}
	got := ddmin(ops, fails)
	if !fails(got) {
		t.Fatal("ddmin returned a passing candidate")
	}
	if len(got) != 2 || got[0].ID() != 3 || got[1].ID() != 7 {
		ids := make([]model.OpID, len(got))
		for i, op := range got {
			ids[i] = op.ID()
		}
		t.Fatalf("ddmin kept %v, want [3 7]", ids)
	}
}
