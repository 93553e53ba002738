package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"redotheory/internal/core"
	"redotheory/internal/shard"
	"redotheory/internal/workload"
)

// crossEvery makes every fifth operation a cross-shard transaction.
const crossEvery = 5

// buildSharded runs a CrossHistory through an N-shard physiological
// database and crashes it. It mirrors sim.BuildShardedCrashed's
// background schedule; the harness owns the loop so that a traced run
// can wrap Exec and Certify in spans. Shard i fails a hundredth of the
// history before shard i+1, the last one at the global crash, so the
// failures sit in the last few percent: few refused operations, some
// dropped transactions.
func buildSharded(e *env) (*shard.DB, forwardRun, error) {
	n, nOps := e.sz.shards, e.sz.shardOps
	pages := workload.Pages(e.sz.shardPages * n)
	d := shard.New(shard.Factory(physiological), n, workload.InitialState(pages))
	ops, err := shard.CrossHistory("physiological", nOps, pages, d.Router(), crossEvery, e.seed)
	if err != nil {
		return nil, forwardRun{}, err
	}
	rng := rand.New(rand.NewSource(e.seed * 131))
	executed := 0
	t0 := time.Now()
	for k, op := range ops {
		for i := 0; i < n; i++ {
			if k == nOps-(n-1-i)*(nOps/100) {
				d.Freeze(i)
			}
		}
		var sp span
		if k%spanEvery == 0 {
			sp = e.tr.span("shard.Exec", 1)
		}
		err := d.Exec(op)
		sp.end()
		if err != nil && !errors.Is(err, shard.ErrShardDown) {
			return nil, forwardRun{}, fmt.Errorf("exec op %d: %w", k, err)
		}
		if err != nil {
			continue // refused: a participant shard is down
		}
		executed++
		i := rng.Intn(n)
		switch {
		case rng.Float64() < 0.35:
			d.FlushLog(i)
		case rng.Float64() < 0.3:
			sp := e.tr.span("shard.Certify", 1)
			_, err = d.Certify()
			sp.end()
		case rng.Float64() < 0.4:
			d.FlushOne(i)
		case rng.Float64() < 0.2:
			err = d.Checkpoint(i)
		case rng.Float64() < 0.3:
			_, err = d.Truncate(i)
		}
		if err != nil {
			return nil, forwardRun{}, fmt.Errorf("background work after op %d: %w", k, err)
		}
	}
	run := forwardRun{ops: executed, logBytes: d.Stats().LogBytes, dur: time.Since(t0)}
	d.Crash()
	return d, run, nil
}

func runShardedRestart(e *env) error {
	d, err := setUp(e, func() (*shard.DB, forwardRun, error) { return buildSharded(e) })
	if err != nil {
		return err
	}
	// The merged single-log oracle at the certified cut, computed once:
	// the cut is a function of the stable logs alone.
	cold()
	first, err := d.Recover(shard.RecoverOptions{})
	if err != nil {
		return err
	}
	want, err := d.MergedOracle(first.Cut)
	if err != nil {
		return err
	}
	// The restart half counts the records inside the cut: the ones
	// recovery examines.
	o := offline{want: want}
	for i, so := range first.Shards {
		o.records += so.CutRecords
		o.bytes += logBytes(d.Shard(i).StableLog().Prefix(so.CutLSN))
	}
	recoverWith := func(opts shard.RecoverOptions) func() (recovered, error) {
		return func() (recovered, error) {
			out, err := d.Recover(opts)
			if err != nil {
				return recovered{}, err
			}
			if opts.CheckInvariant {
				e.res.check(out.InvariantOK(), "a shard's projection violates the Recovery Invariant")
			}
			return recovered{state: out.State}, nil
		}
	}
	o.seq = recoverWith(shard.RecoverOptions{})
	o.par = recoverWith(shard.RecoverOptions{Parallel: true})
	if e.traced() {
		return shardLayers(e, d, first, &o, recoverWith(shard.RecoverOptions{CheckInvariant: true}))
	}
	seqD, err := o.run(e, e.budget, minRecoverIters)
	setOfflineRestart(e, seqD)
	return err
}

// shardLayers is the traced run: the three recovery variants and
// unspanned ones alternate, and each round times the cut's ingredients
// and the per-shard checker from outside.
func shardLayers(e *env, d *shard.DB, first *shard.Outcome, o *offline, audit func() (recovered, error)) error {
	tr := e.tr
	var unspanned, unspannedAudit []time.Duration
	err := loop(e.budget, minLayerRounds, func() error {
		for _, v := range []struct {
			name string
			rec  func() (recovered, error)
			tr   *tracer
			durs *[]time.Duration
		}{
			{"shard.Recover", o.seq, tr, nil},
			{"shard.Recover.audit", audit, tr, nil},
			{"shard.Recover.parallel", o.par, tr, nil},
			{"shard.Recover", o.seq, nil, &unspanned},
			{"shard.Recover.audit", audit, nil, &unspannedAudit},
		} {
			dur, _, err := o.timed(e, v.name, v.rec, v.tr)
			if err != nil {
				return err
			}
			if v.durs != nil {
				*v.durs = append(*v.durs, dur)
			}
		}

		sp := tr.span("shard.StableTxns", 1)
		txns, err := d.StableTxns()
		sp.end()
		if err != nil {
			return err
		}
		in := shard.CutInput{Txns: txns}
		for i := 0; i < d.N(); i++ {
			in.Frontiers = append(in.Frontiers, d.Shard(i).WAL().StableLSN())
			slog := d.Shard(i).StableLog()
			low := slog.NextLSN()
			if recs := slog.Records(); len(recs) > 0 {
				low = recs[0].LSN
			}
			in.LowWater = append(in.LowWater, low)
		}
		sp = tr.span("shard.ComputeCut", 1)
		cut, err := shard.ComputeCut(in)
		sp.end()
		if err != nil {
			return err
		}
		e.res.check(fmt.Sprint(cut.Frontier) == fmt.Sprint(first.Cut.Frontier), "ComputeCut from outside gave %v, recovery used %v", cut.Frontier, first.Cut.Frontier)

		// The audit's two halves, per shard, over the cut prefix.
		for i := 0; i < d.N(); i++ {
			db := d.Shard(i)
			prefix := db.StableLog().Prefix(cut.Frontier[i])
			cold()
			sp := tr.span("core.NewChecker", prefix.Len())
			ck, err := core.NewChecker(prefix, db.RecoveryBase())
			sp.end()
			if err != nil {
				return err
			}
			sp = tr.span("core.Checker.Check", prefix.Len())
			rep := ck.Check(db.StableState(), prefix, db.Checkpointed(), db.RedoTest(), db.Analyze(), false)
			sp.end()
			e.res.check(rep.OK, "shard %d projection: %s", i, rep.Summary())
		}
		return nil
	})
	if err != nil {
		return err
	}

	r := e.res
	n := float64(o.records)
	seqNS := tr.median("shard.Recover") * n
	r.set("bench.trace_overhead_ratio", seqNS/float64(medianDur(unspanned)), "spanned / unspanned cold Recover({}) time (base: unspanned)")
	r.set("sharded_recover_records_per_s", perSecond(o.records, medianDur(unspanned)), samplesNote(unspanned)+fmt.Sprintf(", %d cut records; recover_seq_records_per_s under the issue's name", o.records))
	r.set("sharded_audit_records_per_s", perSecond(o.records, medianDur(unspannedAudit)), samplesNote(unspannedAudit)+", Recover({CheckInvariant:true})")
	r.set("shard.exec_us_per_op", us(tr.mean("shard.Exec")), tr.callsNote("shard.Exec")+" during the forward build")
	r.set("shard.certify_us_per_call", us(tr.mean("shard.Certify")), tr.callsNote("shard.Certify")+" during the forward build")
	r.set("shard.stable_txns_us", us(tr.median("shard.StableTxns")), tr.callsNote("shard.StableTxns"))
	r.set("shard.compute_cut_us", us(tr.median("shard.ComputeCut")), tr.callsNote("shard.ComputeCut"))
	r.set("shard.cut_records", n, "")
	r.set("shard.dropped_records", float64(first.DroppedRecords), fmt.Sprintf("%d dropped transactions", len(first.Cut.Dropped)))
	r.set("shard.parallel_over_seq_ratio", tr.median("shard.Recover.parallel")*n/seqNS, "Recover({Parallel:true}) / Recover({}) (base: sequential)")
	r.set("core.checker_build_us_per_record", us(tr.mean("core.NewChecker")), tr.callsNote("core.NewChecker")+", cold DefaultGraphs, per shard cut prefix")
	r.set("core.checker_check_us_per_record", us(tr.mean("core.Checker.Check")), tr.callsNote("core.Checker.Check")+", verifyEnd=false")
	return nil
}
