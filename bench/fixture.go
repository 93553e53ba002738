package main

import (
	"fmt"
	"math/rand"
	"time"

	"redotheory/internal/method"
	"redotheory/internal/model"
	"redotheory/internal/workload"
)

// schedule is the seeded background activity of a forward run: after
// every operation, each action fires with its own probability.
type schedule struct {
	flushOne, flushLog, checkpoint float64
	// truncate follows every checkpoint with TruncateCheckpointed.
	truncate bool
}

type factory func(*model.State) method.DB

func physiological(s *model.State) method.DB    { return method.NewPhysiological(s) }
func physiologicalDPT(s *model.State) method.DB { return method.NewPhysiologicalDPT(s) }

// forward drives ops through db under the schedule. The harness owns
// this loop (rather than sim.BuildCrashed) so that a traced run can wrap
// each call into a layer in a span.
func forward(db method.DB, ops []*model.Op, s schedule, seed int64, tr *tracer) error {
	rng := rand.New(rand.NewSource(seed))
	forces := 0
	for i, op := range ops {
		var sp span
		if i%spanEvery == 0 {
			sp = tr.span("method.Exec", 1)
		}
		err := db.Exec(op)
		sp.end()
		if err != nil {
			return fmt.Errorf("%s: executing op %d: %w", db.Name(), i, err)
		}
		if rng.Float64() < s.flushOne {
			sp := tr.span("cache.FlushOne", 1)
			db.FlushOne()
			sp.end()
		}
		if rng.Float64() < s.flushLog {
			var sp span
			if forces%spanEvery == 0 {
				sp = tr.span("wal.FlushLog", 1)
			}
			forces++
			db.FlushLog()
			sp.end()
		}
		if rng.Float64() < s.checkpoint {
			sp := tr.span("method.Checkpoint", 1)
			err := db.Checkpoint()
			if err == nil && s.truncate {
				_, err = db.(method.Truncator).TruncateCheckpointed()
			}
			sp.end()
			if err != nil {
				return fmt.Errorf("%s: checkpoint after op %d: %w", db.Name(), i, err)
			}
		}
	}
	return nil
}

// fixture is a crashed single-log database and the history behind it.
type fixture struct {
	pages []model.Var
	ops   []*model.Op
	db    method.DB
}

// hotOps is the undiluted history: HotPage's model.ReadWrite operations,
// no compute rounds. rounds > 0 is the hand-run H1 dilution.
func hotOps(n int, pages []model.Var, seed int64, rounds int) []*model.Op {
	if rounds > 0 {
		return workload.HeavyHotPage(n, pages, rounds, seed)
	}
	return workload.HotPage(n, pages, seed)
}

// buildCrashed generates the history, runs it forward under the
// schedule, forces the log (maximal redo debt) and crashes.
func buildCrashed(mk factory, nOps, nPages int, s schedule, seed int64, rounds int) (*fixture, forwardRun, error) {
	pages := workload.Pages(nPages)
	fx := &fixture{pages: pages, ops: hotOps(nOps, pages, seed, rounds)}
	fx.db = mk(workload.InitialState(pages))
	t0 := time.Now()
	if err := forward(fx.db, fx.ops, s, seed, nil); err != nil {
		return nil, forwardRun{}, err
	}
	fx.db.FlushLog()
	run := forwardRun{ops: nOps, logBytes: fx.db.Stats().LogBytes, dur: time.Since(t0)}
	fx.db.Crash()
	return fx, run, nil
}

// coldSchedule is restart-cold's (and so instant-restart's): frequent
// forces, rare page flushes, no checkpoint, so nearly every record is
// redo debt.
var coldSchedule = schedule{flushOne: 0.01, flushLog: 0.1}

func buildCold(e *env) (*fixture, forwardRun, error) {
	return buildCrashed(physiological, e.sz.coldOps, e.sz.coldPages, coldSchedule, e.seed, e.rounds)
}
