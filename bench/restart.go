package main

import (
	"fmt"
	"runtime"
	"time"

	"redotheory/internal/core"
	"redotheory/internal/dense"
	"redotheory/internal/method"
	"redotheory/internal/model"
	"redotheory/internal/obs"
	"redotheory/internal/partition"
)

func runRestartCold(e *env) error {
	fx, err := setUp(e, func() (*fixture, forwardRun, error) { return buildCold(e) })
	if err != nil {
		return err
	}
	want, err := restartOracle(e, fx.db)
	if err != nil {
		return err
	}
	o := methodOffline(fx.db, want)
	if e.traced() {
		return restartLayers(e, fx.db, nil, &o)
	}
	seqD, err := o.run(e, e.budget, minRecoverIters)
	setOfflineRestart(e, seqD)
	return err
}

func runRestartDPT(e *env) error {
	// The cold schedule plus checkpoints, so the dirty page table is
	// exercised.
	sched := coldSchedule
	sched.checkpoint = 0.002
	build := func(mk factory) (*fixture, forwardRun, error) {
		return buildCrashed(mk, e.sz.dptOps, e.sz.dptPages, sched, e.seed, 0)
	}
	fx, err := setUp(e, func() (*fixture, forwardRun, error) { return build(physiologicalDPT) })
	if err != nil {
		return err
	}
	want, err := restartOracle(e, fx.db)
	if err != nil {
		return err
	}
	o := methodOffline(fx.db, want)
	if !e.traced() {
		seqD, err := o.run(e, e.budget, minRecoverIters)
		setOfflineRestart(e, seqD)
		return err
	}
	// Plain physiological over the same operations is the reference.
	plain, _, err := build(physiological)
	if err != nil {
		return err
	}
	return restartLayers(e, fx.db, plain.db, &o)
}

// restartOracle builds the checker over the stable log once, audits the
// Recovery Invariant at the crash, and returns the state every recovery
// of this fixture must reach. Check runs with verifyEnd=false and the
// harness compares states itself: with verifyEnd=true the checker hands
// one stateful page-LSN redo test to both its prediction and its replay
// and reports a false recovery-diverged (README.md, Findings).
func restartOracle(e *env, db method.DB) (*model.State, error) {
	log := db.StableLog()
	cold()
	ck, err := core.NewChecker(log, db.RecoveryBase())
	if err != nil {
		return nil, fmt.Errorf("building checker: %w", err)
	}
	rep := ck.Check(db.StableState(), log, db.Checkpointed(), db.RedoTest(), db.Analyze(), false)
	e.res.check(rep.OK, "crash state violates the Recovery Invariant: %s", rep.Summary())
	return ck.FinalState(), nil
}

// restartLayers is the traced run of both restart workloads: each round
// calls the recovery layers one by one on the crashed database, every
// call under its own span. With plain set (restart-dpt) the round is the
// short one — view, decide, DPT recovery against the plain reference —
// because one DPT recovery already costs a second.
func restartLayers(e *env, db, plain method.DB, o *offline) error {
	tr := e.tr
	var unspanned, observed, flight []time.Duration
	var last *core.Result
	var stats partition.Stats
	n := o.records
	err := loop(e.budget, minLayerRounds, func() error {
		sp := tr.span("wal.StableLog", 1)
		log := db.StableLog()
		sp.end()
		sp = tr.span("storage.StableState", 1)
		state := db.StableState()
		sp.end()

		cold()
		sp = tr.span("core.NewLogView", n)
		lv := core.NewLogView(log)
		sp.end()
		ckpt, redo, analyze := db.Checkpointed(), db.RedoTest(), db.Analyze()
		sp = tr.span("core.DecideRedo", n)
		dec := core.DecideRedo(state, log, ckpt, redo, analyze)
		sp.end()
		if plain == nil {
			sp = tr.span("partition.FromViews", n)
			plan := partition.FromViews(lv.Views, dec.ReplayIdx, lv.In.Len())
			sp.end()
			stats = plan.Stats()
			sp = tr.span("partition.Index", 1)
			plan.WriterIndex(lv.In.Len())
			plan.ReaderIndex(lv.Views, lv.In.Len())
			sp.end()
			sp = tr.span("dense.FromState", 1)
			dense.FromState(lv.In, state)
			sp.end()
		}

		_, r, err := o.timed(e, "method.Recover", o.seq, tr)
		if err != nil {
			return err
		}
		last = r.res
		// The same recovery with no harness span around it: the base of
		// bench.trace_overhead_ratio and of the obs ratios.
		d, _, err := o.timed(e, "method.Recover", o.seq, nil)
		if err != nil {
			return err
		}
		unspanned = append(unspanned, d)
		if plain != nil {
			p := methodOffline(plain, o.want)
			_, _, err := p.timed(e, "method.Recover.plain", p.seq, tr)
			return err
		}

		// Warm: the view cache still holds the previous recovery's view;
		// only its garbage is collected first.
		runtime.GC()
		sp = tr.span("method.Recover.warm", n)
		_, err = method.Recover(db)
		sp.end()
		if err != nil {
			return err
		}
		if _, _, err := o.timed(e, "method.RecoverParallel", o.par, tr); err != nil {
			return err
		}
		// Telemetry overhead, interleaved with the unspanned recovery
		// above: always-on counters, then counters plus a flight ring.
		for _, v := range []struct {
			durs *[]time.Duration
			ring bool
		}{{&observed, false}, {&flight, true}} {
			rec := obs.New()
			if v.ring {
				rec.SetSink(obs.NewFlightRecorder(4096))
			}
			cold()
			t0 := time.Now()
			if _, err := method.RecoverObserved(db, rec); err != nil {
				return err
			}
			*v.durs = append(*v.durs, time.Since(t0))
		}
		return nil
	})
	if err != nil {
		return err
	}

	r := e.res
	records := float64(n)
	coldNS := tr.median("method.Recover") * records
	base := float64(medianDur(unspanned))
	r.set("bench.trace_overhead_ratio", coldNS/base, "spanned / unspanned cold method.Recover time (base: unspanned)")
	r.set("core.view_build_ns_per_record", tr.median("core.NewLogView"), tr.callsNote("core.NewLogView"))
	r.set("core.decide_ns_per_record", tr.median("core.DecideRedo"), tr.callsNote("core.DecideRedo"))
	r.set("method.redo_selectivity", float64(len(last.Replayed))/float64(last.Examined), fmt.Sprintf("%d replayed / %d examined", len(last.Replayed), last.Examined))
	if plain != nil {
		r.set("core.dpt_over_plain_ratio", coldNS/(tr.median("method.Recover.plain")*records), "cold DPT / cold plain physiological (base: plain)")
		return nil
	}
	r.set("wal.stable_log_us", us(tr.median("wal.StableLog")), tr.callsNote("wal.StableLog"))
	r.set("storage.stable_state_us", us(tr.median("storage.StableState")), tr.callsNote("storage.StableState"))
	r.set("partition.plan_ns_per_record", tr.median("partition.FromViews"), tr.callsNote("partition.FromViews"))
	r.set("partition.components", float64(stats.Components), "")
	r.set("partition.largest_component", float64(stats.Largest), "")
	r.set("partition.index_build_us", us(tr.median("partition.Index")), "WriterIndex + ReaderIndex")
	r.set("dense.from_state_us", us(tr.median("dense.FromState")), tr.callsNote("dense.FromState"))
	warmNS := tr.median("method.Recover.warm") * records
	decideNS := tr.median("core.DecideRedo") * records
	r.set("core.replay_ns_per_record", (warmNS-decideNS)/float64(len(last.Replayed)), "derived: (warm method.Recover - DecideRedo) / replayed")
	r.set("core.warm_over_cold_ratio", warmNS/coldNS, "warm / cold method.Recover (base: cold)")
	r.set("method.parallel_speedup", coldNS/(tr.median("method.RecoverParallel")*records), fmt.Sprintf("cold sequential / cold parallel, %d workers (base: sequential)", maxProcs))
	r.set("obs.metrics_overhead_ratio", float64(medianDur(observed))/base, "RecoverObserved(obs.New()) / Recover, cold, interleaved (base: Recover)")
	r.set("obs.trace_overhead_ratio", float64(medianDur(flight))/base, "the same with a FlightRecorder(4096) sink")
	_, mallocs, err := o.allocs()
	r.set("core.recover_allocs_per_record", float64(mallocs)/records, "MemStats.Mallocs delta of one cold method.Recover")
	return err
}
