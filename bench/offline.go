package main

import (
	"fmt"
	"runtime"
	"time"

	"redotheory/internal/core"
	"redotheory/internal/method"
	"redotheory/internal/model"
)

// recovered is what one offline recovery produced: the state, and for
// the single-log engines the core result too.
type recovered struct {
	state *model.State
	res   *core.Result
}

// offline is the restart half every workload's crashed system has: a
// sequential and a parallel offline recovery of the same survivors, and
// the state both must reach.
type offline struct {
	records, bytes int // stable log records recovery examines, and their modeled wire size
	want           *model.State
	seq, par       func() (recovered, error)
}

// methodOffline is the single-log instance: method.Recover and
// method.RecoverParallel{Workers: maxProcs} over db's survivors.
func methodOffline(db method.DB, want *model.State) offline {
	log := db.StableLog()
	o := offline{records: log.Len(), bytes: logBytes(log), want: want}
	o.seq = func() (recovered, error) {
		res, err := method.Recover(db)
		if err != nil {
			return recovered{}, err
		}
		return recovered{res.State, res}, nil
	}
	o.par = func() (recovered, error) {
		pr, err := method.RecoverParallel(db, method.ParallelOptions{Workers: maxProcs})
		if err != nil {
			return recovered{}, err
		}
		return recovered{pr.State, pr.Result}, nil
	}
	return o
}

// logBytes is the modeled wire size of a log: the sum of its records'
// SizeBytes, which is what RecordView.Size caches.
func logBytes(log *core.Log) int {
	n := 0
	for _, r := range log.Records() {
		n += r.SizeBytes()
	}
	return n
}

// stateDiff prints the variables two states differ on; fmt asks for it
// only when a failed check is being reported.
type stateDiff struct{ got, want *model.State }

func (d stateDiff) String() string { return fmt.Sprint(d.got.Diff(d.want)) }

// timed runs one cold recovery under an optional span and checks it.
func (o *offline) timed(e *env, name string, rec func() (recovered, error), tr *tracer) (time.Duration, recovered, error) {
	cold()
	sp := tr.span(name, o.records)
	t0 := time.Now()
	r, err := rec()
	d := time.Since(t0)
	sp.end()
	if err != nil {
		return d, r, fmt.Errorf("%s: %w", name, err)
	}
	e.res.check(r.state.Equal(o.want), "%s diverged from the oracle state on %v", name, stateDiff{r.state, o.want})
	return d, r, nil
}

// run times cold sequential and cold parallel recovery, interleaved,
// until minIters pairs and the budget are spent, and records the restart
// half's throughput metrics and the heap cost of one more sequential
// recovery. It returns the sequential durations.
func (o *offline) run(e *env, budget time.Duration, minIters int) ([]time.Duration, error) {
	var seqD, parD []time.Duration
	err := loop(budget, minIters, func() error {
		d, seq, err := o.timed(e, "recover.seq", o.seq, nil)
		if err != nil {
			return err
		}
		seqD = append(seqD, d)
		d, par, err := o.timed(e, "recover.par", o.par, nil)
		if err != nil {
			return err
		}
		parD = append(parD, d)
		if seq.res != nil && par.res != nil {
			err := par.res.SameOutcome(seq.res)
			e.res.check(err == nil, "parallel recovery is not SameOutcome as sequential: %v", err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	seqMed := medianDur(seqD)
	e.res.set("recover_seq_records_per_s", perSecond(o.records, seqMed), samplesNote(seqD)+fmt.Sprintf(", %d records", o.records))
	e.res.set("recover_par_records_per_s", perSecond(o.records, medianDur(parD)), samplesNote(parD)+fmt.Sprintf(", %d workers", maxProcs))
	e.res.set("recover_log_mb_per_s", perSecond(o.bytes, seqMed)/1e6, fmt.Sprintf("%d modeled log bytes", o.bytes))
	bytes, _, err := o.allocs()
	e.res.set("recover_alloc_bytes_per_record", float64(bytes)/float64(max(o.records, 1)), "TotalAlloc delta of one cold sequential recovery")
	return seqD, err
}

// setOfflineRestart records the restart-latency metrics of a workload
// that restarts offline: the first read is served when recovery ends (a
// read of the recovered state costs nanoseconds), which is also when the
// system is drained.
func setOfflineRestart(e *env, seqD []time.Duration) {
	e.res.set("ttfr_p50_ms", ms(pctDur(seqD, 50)), samplesNote(seqD)+", offline: the first read waits for the whole recovery")
	e.res.set("ttfr_p90_ms", ms(pctDur(seqD, 90)), fmt.Sprintf("n=%d", len(seqD)))
	e.res.set("drained_ms", ms(medianDur(seqD)), "offline: drained when recovery ends")
}

// allocs is the heap cost of one cold sequential recovery: bytes and
// objects allocated, from runtime.MemStats deltas.
func (o *offline) allocs() (bytes, mallocs uint64, err error) {
	cold()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	_, err = o.seq()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc, b.Mallocs - a.Mallocs, err
}
