package fuzz

import (
	"redotheory/internal/model"
	"redotheory/internal/sim"
)

// maxShrinkRuns bounds the number of oracle evaluations one shrink may
// spend, so a pathological failure cannot stall the whole campaign.
const maxShrinkRuns = 600

// Shrink minimizes a failing cell with delta debugging. Phases, each
// keeping the cell failing:
//
//  1. Truncate the history to the crash point — operations past the
//     crash never execute, so dropping them cannot change the outcome.
//  2. ddmin over the operations (crash pinned to the full prefix),
//     followed by a greedy single-op removal pass to a fixpoint.
//  3. Earliest failing crash point: crash points below the adopted one
//     are tried in order and the smallest failing prefix wins.
//  4. Schedule simplification: all background probabilities zeroed,
//     then each zeroed individually, then the schedule seed forced to 1.
//  5. Nested-crash simplification: the supervised leg's crash schedule
//     dropped entirely, then shortened one crash at a time from the end.
//
// Every candidate is re-executed from scratch through the same legs,
// each under a fresh recorder, so the result is exactly reproducible.
// Shrink returns nil when the original cell does not fail under
// re-execution (a flaky harness, which the caller should surface as its
// own bug) and the minimized cell otherwise.
func Shrink(cell sim.Cell, legs sim.Legs, failCheck func(ops []*model.Op, crash int) string) *sim.Cell {
	runs := 0
	fails := func(c sim.Cell) bool {
		if runs >= maxShrinkRuns {
			return false
		}
		runs++
		res, _, err := check(c, legs, failCheck)
		return err == nil && !res.OK()
	}
	cell.Recorder = nil
	if !fails(cell) {
		return nil
	}

	cur := cell
	try := func(c sim.Cell) bool {
		if fails(c) {
			cur = c
			return true
		}
		return false
	}

	// Phase 1: drop the unexecuted suffix.
	if cur.Crash < len(cur.Ops) {
		try(withOps(cur, cur.Ops[:cur.Crash]))
	}

	// Phase 2: ddmin over the executed operations.
	reduced := ddmin(cur.Ops, func(cand []*model.Op) bool {
		return fails(withOps(cur, cand))
	})
	try(withOps(cur, reduced))
	for removed := true; removed; {
		removed = false
		for i := 0; i < len(cur.Ops); i++ {
			cand := make([]*model.Op, 0, len(cur.Ops)-1)
			cand = append(cand, cur.Ops[:i]...)
			cand = append(cand, cur.Ops[i+1:]...)
			if try(withOps(cur, cand)) {
				removed = true
				break
			}
		}
	}

	// Phase 3: earliest failing crash point (the truncated prefix is the
	// whole history, so lowering the crash point also drops the suffix).
	for c := 0; c < cur.Crash; c++ {
		if try(withOps(cur, cur.Ops[:c])) {
			break
		}
	}

	// Phase 4: schedule simplification.
	quiet := cur
	quiet.Sched.FlushProb, quiet.Sched.ForceProb = 0, 0
	quiet.Sched.CheckpointProb, quiet.Sched.TruncateProb = 0, 0
	if !try(quiet) {
		for _, zero := range []func(*sim.Sched){
			func(s *sim.Sched) { s.TruncateProb = 0 },
			func(s *sim.Sched) { s.CheckpointProb = 0 },
			func(s *sim.Sched) { s.ForceProb = 0 },
			func(s *sim.Sched) { s.FlushProb = 0 },
		} {
			cand := cur
			zero(&cand.Sched)
			try(cand)
		}
	}
	if cur.Sched.Seed != 1 {
		cand := cur
		cand.Sched.Seed = 1
		try(cand)
	}

	// Phase 5: nested-crash simplification — a failure that survives with
	// no crash-during-recovery schedule is not about supervision at all.
	if len(cur.Nested.Crashes) > 0 {
		cand := cur
		cand.Nested.Crashes = nil
		if !try(cand) {
			for len(cur.Nested.Crashes) > 1 {
				cand := cur
				cand.Nested.Crashes = cur.Nested.Crashes[:len(cur.Nested.Crashes)-1]
				if !try(cand) {
					break
				}
			}
		}
	}

	return &cur
}

// withOps rebinds the cell to a new operation list, crashing after all
// of it.
func withOps(c sim.Cell, ops []*model.Op) sim.Cell {
	c.Ops = ops
	c.Crash = len(ops)
	return c
}

// ddmin is the classic delta-debugging minimization over the op list:
// it repeatedly tries dropping chunks (testing each chunk's complement)
// at doubling granularity until no chunk can be dropped. The result
// still fails; single-op minimality is finished by the caller's greedy
// pass.
func ddmin(ops []*model.Op, fails func([]*model.Op) bool) []*model.Op {
	n := 2
	for len(ops) >= 2 && n <= len(ops) {
		chunk := (len(ops) + n - 1) / n
		reduced := false
		for start := 0; start < len(ops); start += chunk {
			end := start + chunk
			if end > len(ops) {
				end = len(ops)
			}
			complement := make([]*model.Op, 0, len(ops)-(end-start))
			complement = append(complement, ops[:start]...)
			complement = append(complement, ops[end:]...)
			if len(complement) > 0 && fails(complement) {
				ops = complement
				n = max(n-1, 2)
				reduced = true
				break
			}
		}
		if !reduced {
			if n == len(ops) {
				break
			}
			n = min(2*n, len(ops))
		}
	}
	return ops
}
