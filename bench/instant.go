package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"redotheory/internal/method"
	"redotheory/internal/model"
	"redotheory/internal/serve"
	"redotheory/internal/workload"
)

// writeEvery makes every tenth client request an Exec: 9 reads : 1 write.
const writeEvery = 10

// trial is one instant restart under client load.
type trial struct {
	ttfr     []time.Duration // one per client: handoff to first served read
	interval time.Duration   // handoff to Done()
	ops      int             // client requests completed in the interval
	stats    serve.Stats
	// readLat and writeLat are per-request latencies, traced trials only.
	readLat, writeLat []time.Duration
}

func runInstantRestart(e *env) error {
	fx, err := setUp(e, func() (*fixture, forwardRun, error) { return buildCold(e) })
	if err != nil {
		return err
	}
	// Offline recovery of the same survivors is the oracle's base state,
	// and the wait the instant restart replaces.
	cold()
	off, err := method.Recover(fx.db)
	if err != nil {
		return err
	}
	o := methodOffline(fx.db, off.State)
	if e.traced() {
		return serveLayers(e, fx, &o, len(off.Replayed))
	}
	if _, err := o.run(e, e.budget/4, minRecoverIters); err != nil {
		return err
	}

	var ttfr, drained []time.Duration
	n := 0
	err = loop(e.budget, minTrials, func() error {
		t, err := runTrial(e, fx, off.State, n, nil)
		n++
		if err != nil {
			return err
		}
		ttfr = append(ttfr, t.ttfr...)
		drained = append(drained, t.stats.FullRecovery)
		return nil
	})
	if err != nil {
		return err
	}
	e.res.set("ttfr_p50_ms", ms(pctDur(ttfr, 50)), samplesNote(ttfr)+fmt.Sprintf(", %d closed-loop clients", clients))
	e.res.set("ttfr_p90_ms", ms(pctDur(ttfr, 90)), fmt.Sprintf("n=%d", len(ttfr)))
	e.res.set("drained_ms", ms(medianDur(drained)), samplesNote(drained)+" Stats().FullRecovery under client load")
	return nil
}

// runTrial starts a serving engine on the crashed database and runs the
// closed-loop clients until every component has recovered, then checks
// the drained state against offline recovery plus the committed client
// writes replayed in commit order (fuzz leg 8's rule). The engine gets a
// private WAL, so the crashed database is untouched for the next trial.
func runTrial(e *env, fx *fixture, base *model.State, n int, tr *tracer) (*trial, error) {
	cold()
	start := time.Now() // the crash handoff
	sp := tr.span("serve.New", 1)
	eng, err := serve.New(fx.db, serve.Options{Sweeper: true})
	sp.end()
	if err != nil {
		return nil, err
	}
	defer eng.Close()

	t := &trial{ttfr: make([]time.Duration, clients)}
	executed := make([][]*model.Op, clients)
	reads, writes := make([][]time.Duration, clients), make([][]time.Duration, clients)
	counts := make([]int, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(e.seed*1000003 + int64(n)*101 + int64(c)))
			pick := workload.HotZipf(rng, fx.pages)
			nextID := model.OpID(len(fx.ops)+1) + model.OpID(c)<<40
			for r := 0; ; r++ {
				p := pick()
				var t0 time.Time
				if tr != nil {
					t0 = time.Now()
				}
				if r%writeEvery == writeEvery-1 {
					op := model.ReadWrite(nextID, "client", []model.Var{p}, []model.Var{p})
					nextID++
					if errs[c] = eng.Exec(op); errs[c] != nil {
						return
					}
					executed[c] = append(executed[c], op)
					if tr != nil {
						writes[c] = append(writes[c], time.Since(t0))
					}
				} else {
					if _, errs[c] = eng.Read(p); errs[c] != nil {
						return
					}
					if t.ttfr[c] == 0 {
						t.ttfr[c] = time.Since(start)
					}
					if tr != nil {
						reads[c] = append(reads[c], time.Since(t0))
					}
				}
				counts[c]++
				select {
				case <-eng.Done():
					return
				default:
				}
				// A request boundary: a real client hands the connection back
				// between requests. Without the yield two spinning clients
				// own both CPUs and the sweeper waits for preemption.
				runtime.Gosched()
			}
		}(c)
	}
	<-eng.Done()
	t.interval = time.Since(start)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("client: %w", err)
		}
	}
	t.stats = eng.Stats()
	byID := map[model.OpID]*model.Op{}
	for c := range executed {
		t.ops += counts[c]
		t.readLat = append(t.readLat, reads[c]...)
		t.writeLat = append(t.writeLat, writes[c]...)
		for _, op := range executed[c] {
			byID[op.ID()] = op
		}
	}
	return t, checkServed(e, eng, base, byID)
}

// checkServed is the instant-restart oracle: the drained engine's state
// must equal offline recovery plus Commits() replayed in order.
func checkServed(e *env, eng *serve.Engine, base *model.State, byID map[model.OpID]*model.Op) error {
	res, err := eng.Result()
	if err != nil {
		return err
	}
	ref := base.Clone()
	for _, id := range eng.Commits() {
		if _, err := ref.Apply(byID[id]); err != nil {
			return err
		}
	}
	e.res.check(res.State.Equal(ref), "drained engine state differs from offline recovery plus commits on %v", stateDiff{res.State, ref})
	return nil
}

// serveLayers is the traced run: traced and untraced trials alternate,
// then the gate's paths are timed one by one on engines without a
// sweeper, single-threaded.
func serveLayers(e *env, fx *fixture, o *offline, replayed int) error {
	tr, base := e.tr, o.want
	var plainTTFR, tracedTTFR, readLat, writeLat, offlineD []time.Duration
	var lazy, swept, rates []float64
	n := 0
	err := loop(e.budget, minTracedTrials, func() error {
		// The offline wait the instant restart replaces.
		d, _, err := o.timed(e, "method.Recover", o.seq, tr)
		if err != nil {
			return err
		}
		offlineD = append(offlineD, d)
		for _, with := range []*tracer{nil, tr} {
			t, err := runTrial(e, fx, base, n, with)
			n++
			if err != nil {
				return err
			}
			if with == nil {
				plainTTFR = append(plainTTFR, t.ttfr...)
				rates = append(rates, perSecond(t.ops, t.interval))
				continue
			}
			tracedTTFR = append(tracedTTFR, t.ttfr...)
			readLat = append(readLat, t.readLat...)
			writeLat = append(writeLat, t.writeLat...)
			lazy = append(lazy, float64(t.stats.Lazy))
			swept = append(swept, float64(t.stats.Swept))
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Miss path: the first read of every page, in seeded order, on an
	// untouched engine. Nearly all the time goes to the reads that find
	// their component unrecovered, so the total over the components
	// recovered is the cost of one miss.
	cold()
	eng, err := serve.New(fx.db, serve.Options{})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(e.seed))
	for _, i := range rng.Perm(len(fx.pages)) {
		sp := tr.span("serve.Read.first", 1)
		_, err := eng.Read(fx.pages[i])
		sp.end()
		if err != nil {
			return err
		}
	}
	misses := eng.Stats().Lazy
	// Every component writes a page, so the engine is now drained (Drain
	// finds nothing left): the hit path and the write path, in batches.
	if err := eng.Drain(); err != nil {
		return err
	}
	const hits, execs = 20000, 2000
	pick := workload.HotZipf(rng, fx.pages)
	sp := tr.span("serve.Read.hit", hits)
	for i := 0; i < hits; i++ {
		if _, err := eng.Read(pick()); err != nil {
			return err
		}
	}
	sp.end()
	ops := make([]*model.Op, execs)
	byID := map[model.OpID]*model.Op{}
	for i := range ops {
		p := pick()
		ops[i] = model.ReadWrite(model.OpID(len(fx.ops)+1+i), "client", []model.Var{p}, []model.Var{p})
		byID[ops[i].ID()] = ops[i]
	}
	sp = tr.span("serve.Exec", execs)
	for _, op := range ops {
		if err := eng.Exec(op); err != nil {
			return err
		}
	}
	sp.end()
	if err := checkServed(e, eng, base, byID); err != nil {
		return err
	}

	// Drain path: Engine.Drain on an untouched engine.
	cold()
	eng, err = serve.New(fx.db, serve.Options{})
	if err != nil {
		return err
	}
	sp = tr.span("serve.Drain", replayed)
	err = eng.Drain()
	sp.end()
	if err != nil {
		return err
	}
	if err := checkServed(e, eng, base, nil); err != nil {
		return err
	}

	r := e.res
	r.set("bench.trace_overhead_ratio", float64(pctDur(tracedTTFR, 50))/float64(pctDur(plainTTFR, 50)),
		fmt.Sprintf("traced / untraced trial ttfr p50 (base: untraced), n=%d each", len(plainTTFR)))
	r.set("serve_ops_per_s", medianFloat(rates), fmt.Sprintf("n=%d untraced trials, median; reads+writes between handoff and Done(), 9 reads : 1 Exec", len(rates)))
	r.set("serve.new_ms", tr.median("serve.New")/1e6, tr.callsNote("serve.New"))
	r.set("serve.read_miss_us", us(float64(tr.tot["serve.Read.first"].sum)/float64(max(misses, 1))),
		fmt.Sprintf("%d first reads, %d recovered a component", len(fx.pages), misses))
	r.set("serve.read_hit_ns", tr.mean("serve.Read.hit"), fmt.Sprintf("%d reads, drained engine", hits))
	r.set("serve.exec_us", us(tr.mean("serve.Exec")), fmt.Sprintf("%d Execs, drained engine", execs))
	r.set("serve.drain_ns_per_record", tr.mean("serve.Drain"), fmt.Sprintf("%d replayed records", replayed))
	r.set("serve.read_p99_us", us(float64(pctDur(readLat, 99))), samplesNote(readLat)+fmt.Sprintf(" max=%s", pctDur(readLat, 100)))
	r.set("serve.write_p99_us", us(float64(pctDur(writeLat, 99))), samplesNote(writeLat)+fmt.Sprintf(" max=%s", pctDur(writeLat, 100)))
	r.set("serve.lazy_components", meanFloat(lazy), fmt.Sprintf("mean of %d trials", len(lazy)))
	r.set("serve.swept_components", meanFloat(swept), fmt.Sprintf("mean of %d trials", len(swept)))
	r.set("serve.ttfr_over_offline", float64(pctDur(plainTTFR, 90))/float64(medianDur(offlineD)),
		fmt.Sprintf("untraced ttfr p90 %s / cold offline recovery %s (base: offline)", pctDur(plainTTFR, 90).Round(time.Microsecond), medianDur(offlineD).Round(time.Microsecond)))
	return nil
}
