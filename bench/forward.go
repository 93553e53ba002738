package main

import (
	"fmt"
	"sort"
	"time"

	"redotheory/internal/method"
	"redotheory/internal/model"
	"redotheory/internal/wal"
	"redotheory/internal/workload"
)

// forwardSchedule is normal operation: the background writer, group
// commit, and the occasional checkpoint that also truncates the log.
var forwardSchedule = schedule{flushOne: 0.01, flushLog: 0.1, checkpoint: 0.0005, truncate: true}

type forwardInput struct {
	pages []model.Var
	ops   []*model.Op
}

// passOutcome is what one forward pass leaves behind: its cost, its
// counters, and the crashed database with the state it must recover to.
type passOutcome struct {
	run   forwardRun
	stats method.Stats
	off   offline
}

func runForwardExec(e *env) error {
	// Forward execution is the timed path here, so set-up is fixture
	// generation alone.
	in, err := setUp(e, func() (*forwardInput, forwardRun, error) {
		pages := workload.Pages(e.sz.fwdPages)
		return &forwardInput{pages, workload.HotPage(e.sz.fwdOps, pages, e.seed)}, forwardRun{}, nil
	})
	if err != nil {
		return err
	}
	// The determined state of a stable prefix, by replaying the history
	// from the initial state; every pass loses the same tail, so the
	// oracle state is computed once per prefix length.
	oracle := map[int]*model.State{}
	pass := func(tr *tracer) (passOutcome, error) {
		db := method.NewPhysiological(workload.InitialState(in.pages))
		t0 := time.Now()
		if err := forward(db, in.ops, forwardSchedule, e.seed, tr); err != nil {
			return passOutcome{}, err
		}
		out := passOutcome{stats: db.Stats()}
		out.run = forwardRun{ops: len(in.ops), logBytes: out.stats.LogBytes, dur: time.Since(t0)}
		// Crash without a final force: the volatile tail is really lost.
		stable := stableOps(db, in.ops)
		db.Crash()
		want := oracle[stable]
		if want == nil {
			want = workload.InitialState(in.pages)
			for _, op := range in.ops[:stable] {
				if _, err := want.Apply(op); err != nil {
					return out, err
				}
			}
			oracle[stable] = want
		}
		out.off = methodOffline(db, want)
		return out, nil
	}

	if e.traced() {
		return forwardLayers(e, in, pass)
	}
	// Two thirds of the budget go to forward passes. Every pass ends in
	// a restart: recovery must reflect exactly the operations whose
	// records were stable. The last pass's survivors are then recovered
	// for the rest of the budget, timed like any other restart.
	var runs []forwardRun
	var last passOutcome
	err = loop(e.budget*2/3, minPasses, func() error {
		var err error
		if last, err = pass(nil); err != nil {
			return err
		}
		runs = append(runs, last.run)
		_, _, err = last.off.timed(e, "method.Recover", last.off.seq, nil)
		return err
	})
	if err != nil {
		return err
	}
	e.setForward(runs)
	seqD, err := last.off.run(e, e.budget/3, minRecoverIters)
	setOfflineRestart(e, seqD)
	return err
}

// stableOps counts the operations whose log record is stable. LSNs grow
// with the operation index, and a record truncated away was stable, so
// the stable operations are a prefix of the history.
func stableOps(db method.DB, ops []*model.Op) int {
	stable, log := db.WAL().StableLSN(), db.WAL().Log()
	return sort.Search(len(ops), func(i int) bool {
		r := log.RecordOf(ops[i].ID())
		return r != nil && r.LSN > stable
	})
}

// forwardLayers is the traced run: untraced and traced passes
// alternate, then the log manager is timed alone.
func forwardLayers(e *env, in *forwardInput, pass func(*tracer) (passOutcome, error)) error {
	tr := e.tr
	var plain, traced []time.Duration
	var last passOutcome
	err := loop(e.budget, minLayerRounds, func() error {
		for _, with := range []*tracer{nil, tr} {
			out, err := pass(with)
			if err != nil {
				return err
			}
			if _, _, err := out.off.timed(e, "method.Recover", out.off.seq, with); err != nil {
				return err
			}
			if with == nil {
				plain = append(plain, out.run.dur)
			} else {
				traced, last = append(traced, out.run.dur), out
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	// wal.Manager alone: append every record, force every tenth.
	m := wal.NewManager()
	sp := tr.span("wal.Append", len(in.ops))
	for i, op := range in.ops {
		m.Append(op, 24)
		if i%10 == 9 {
			m.Flush()
		}
	}
	sp.end()

	r := e.res
	r.set("bench.trace_overhead_ratio", float64(medianDur(traced))/float64(medianDur(plain)),
		fmt.Sprintf("traced / untraced pass time (base: untraced), spans on 1 call in %d", spanEvery))
	r.set("method.exec_ns_per_op", tr.mean("method.Exec"), tr.callsNote("method.Exec"))
	r.set("wal.flushlog_ns_per_call", tr.mean("wal.FlushLog"), tr.callsNote("wal.FlushLog"))
	r.set("wal.forces", float64(last.stats.LogForces), "Stats().LogForces of one pass")
	r.set("cache.flushone_us_per_call", us(tr.mean("cache.FlushOne")), tr.callsNote("cache.FlushOne"))
	r.set("cache.page_flushes", float64(last.stats.PageFlushes), "Stats().PageFlushes of one pass")
	r.set("method.checkpoint_us_per_call", us(tr.mean("method.Checkpoint")), tr.callsNote("method.Checkpoint")+" Checkpoint + TruncateCheckpointed")
	r.set("wal.append_ns_per_record", tr.mean("wal.Append"), "standalone manager, Flush every 10")
	return nil
}
