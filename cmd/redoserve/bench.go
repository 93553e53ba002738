package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"redotheory/internal/method"
	"redotheory/internal/model"
	"redotheory/internal/serve"
	"redotheory/internal/sim"
	"redotheory/internal/trendlog"
	"redotheory/internal/workload"
)

const (
	// writeEvery makes every writeEvery-th client request a post-crash
	// write through the admission gate.
	writeEvery = 10
	// sweepDelay holds the background sweeper back after each restart
	// long enough for the first client touches to own the machine: on a
	// single CPU an immediate sweep competes with the very reads whose
	// latency is the point of the measurement. The sweeper then drains
	// the cold tail; only the online full recovery pays for the head
	// start, and availability — not restore time — is the claim under
	// test.
	sweepDelay = 25 * time.Millisecond
)

// report is the BENCH_serve.json schema.
type report struct {
	GeneratedAt string  `json:"generated_at"`
	GoMaxProcs  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"num_cpu"`
	Fixture     fixture `json:"fixture"`
	// TTFR are time-to-first-read percentiles over all per-client
	// samples (clients × trials): crash handoff (engine construction,
	// i.e. the decision phase) → first served read.
	TTFR struct {
		P50Ns int64 `json:"p50_ns"`
		P99Ns int64 `json:"p99_ns"`
		MaxNs int64 `json:"max_ns"`
	} `json:"ttfr"`
	// OfflineRecoveryNs is the median sequential full-recovery
	// wall-clock — the wait a non-instant restart imposes before the
	// first read. OnlineRecoveryNs is the median time to full recovery
	// while serving (sweeper + client touches sharing the machine).
	OfflineRecoveryNs int64 `json:"offline_recovery_ns"`
	OnlineRecoveryNs  int64 `json:"online_recovery_ns"`
	// Ratio is TTFR.P99Ns / OfflineRecoveryNs; the availability gate
	// requires Ratio ≤ Tolerance.
	Ratio     float64 `json:"ratio_p99_vs_offline"`
	Tolerance float64 `json:"tolerance"`
	// Served traffic and recovery-trigger split, per-trial means (the
	// engine is fresh each trial, so swept + lazy cannot exceed the
	// plan's component count in any trial).
	Reads    float64     `json:"reads_mean"`
	Writes   float64     `json:"writes_mean"`
	Lazy     float64     `json:"lazy_redo_components_mean"`
	Swept    float64     `json:"swept_components_mean"`
	PerTrial []trialStat `json:"per_trial"`
	History  []trend     `json:"history,omitempty"`
	Verdict  string      `json:"verdict"`

	samples int // pooled first-read measurements; not in the JSON
}

// fixture shapes the crashed history and the client load: a
// HeavyHotPage workload of Ops operations over Pages pages, each
// folding its digest Rounds times so replay work dominates
// bookkeeping; Clients goroutines each issue Requests operations per
// trial.
type fixture struct {
	Desc     string `json:"desc"`
	Ops      int    `json:"ops"`
	Pages    int    `json:"pages"`
	Rounds   int    `json:"compute_rounds"`
	Clients  int    `json:"clients"`
	Requests int    `json:"requests_per_client"`
	Trials   int    `json:"trials"`
}

// trialStat is one trial's engine counters: the interference
// components in the trial's recovery plan and the served traffic and
// recovery-trigger split observed while draining it.
type trialStat struct {
	Components int   `json:"components"`
	Reads      int64 `json:"reads"`
	Writes     int64 `json:"writes"`
	Lazy       int64 `json:"lazy_redo_components"`
	Swept      int64 `json:"swept_components"`
}

// trend is one historical run in the report's trend log, matching the
// BENCH_parallel.json convention (oldest first, capped by trendlog).
type trend struct {
	GeneratedAt string  `json:"generated_at"`
	NumCPU      int     `json:"num_cpu"`
	GoMaxProcs  int     `json:"gomaxprocs"`
	TTFRP99Ns   int64   `json:"ttfr_p99_ns"`
	OfflineNs   int64   `json:"offline_recovery_ns"`
	Ratio       float64 `json:"ratio_p99_vs_offline"`
}

// runBench measures, gates and writes the report; it exits 1 when the
// availability gate fails.
func runBench(out, baseline string, tolerance float64, fx fixture, seed int64) {
	var base *report
	if baseline != "" {
		data, err := os.ReadFile(baseline)
		if err != nil {
			fatal(fmt.Errorf("reading baseline: %w", err))
		}
		base = new(report)
		if err := json.Unmarshal(data, base); err != nil {
			fatal(fmt.Errorf("parsing baseline %s: %w", baseline, err))
		}
	}

	rep, err := measure(fx, seed)
	if err != nil {
		fatal(err)
	}
	rep.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	rep.GoMaxProcs = runtime.GOMAXPROCS(0)
	rep.NumCPU = runtime.NumCPU()
	rep.Tolerance = tolerance
	if base != nil {
		rep.History = trendlog.Append(base.History, func(t trend) string { return t.GeneratedAt }, trend{
			GeneratedAt: base.GeneratedAt, NumCPU: base.NumCPU, GoMaxProcs: base.GoMaxProcs,
			TTFRP99Ns: base.TTFR.P99Ns, OfflineNs: base.OfflineRecoveryNs, Ratio: base.Ratio,
		})
	}

	failed := rep.Ratio > tolerance
	rep.Verdict = fmt.Sprintf("ok: p99 first read in %.1f%% of an offline recovery (gate %.0f%%)",
		100*rep.Ratio, 100*tolerance)
	if failed {
		rep.Verdict = fmt.Sprintf("FAIL: p99 time-to-first-read is %.1f%% of offline full recovery, over the %.0f%% availability gate",
			100*rep.Ratio, 100*tolerance)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}

	fmt.Printf("cpus: %d (GOMAXPROCS %d)\n", rep.NumCPU, rep.GoMaxProcs)
	fmt.Printf("fixture: %s, %d clients × %d requests × %d trials\n",
		rep.Fixture.Desc, fx.Clients, fx.Requests, fx.Trials)
	fmt.Printf("time to first read: p50 %s  p99 %s  max %s (%d samples)\n",
		time.Duration(rep.TTFR.P50Ns), time.Duration(rep.TTFR.P99Ns), time.Duration(rep.TTFR.MaxNs), rep.samples)
	fmt.Printf("full recovery: offline %s, online (serving) %s\n",
		time.Duration(rep.OfflineRecoveryNs), time.Duration(rep.OnlineRecoveryNs))
	fmt.Printf("served during recovery (per-trial means): %.1f reads, %.1f writes; components lazy %.1f / swept %.1f\n",
		rep.Reads, rep.Writes, rep.Lazy, rep.Swept)
	fmt.Printf("wrote %s\n%s\n", out, rep.Verdict)
	if failed {
		os.Exit(1)
	}
}

// measure runs the instant-restart availability benchmark: it crashes a
// HeavyHotPage history with the whole log forced (maximal redo debt,
// nothing installed), then for each trial times (a) sequential offline
// Recover and (b) the serving engine under concurrent Zipfian client
// load, recording each client's first successful read. The headline
// ratio is p99 time-to-first-read over median offline recovery — the
// instant-restart claim is that this is a small fraction. It fills the
// report's fixture and measurements; the caller stamps and gates it.
func measure(fx fixture, seed int64) (*report, error) {
	pages := workload.Pages(fx.Pages)
	ops := workload.HeavyHotPage(fx.Ops, pages, fx.Rounds, seed)
	mk := func(s *model.State) method.DB { return method.NewPhysiological(s) }
	crash := func() (method.DB, error) {
		return sim.BuildCrashed(mk, workload.InitialState(pages), ops, len(ops), sim.Sched{Seed: seed, ForceOnCrash: true}, nil)
	}

	rep := &report{Fixture: fx}
	rep.Fixture.Desc = fmt.Sprintf("heavyhot/ops=%d,pages=%d,rounds=%d", fx.Ops, fx.Pages, fx.Rounds)
	var ttfrs, onlines, offlines []time.Duration
	for trial := 0; trial < fx.Trials; trial++ {
		// Offline baseline: crash, then sequential Recover end to end.
		db, err := crash()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if _, err := method.Recover(db); err != nil {
			return nil, fmt.Errorf("offline recovery: %w", err)
		}
		offlines = append(offlines, time.Since(t0))

		// Online: same crash, serve immediately under client load.
		if db, err = crash(); err != nil {
			return nil, err
		}
		start := time.Now()
		eng, err := serve.New(db, serve.Options{Sweeper: true, SweepDelay: sweepDelay})
		if err != nil {
			return nil, err
		}
		firsts := make([]time.Duration, fx.Clients)
		errs := make([]error, fx.Clients)
		var wg sync.WaitGroup
		for c := 0; c < fx.Clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				// The same Zipf parameters as workload.HotPage: clients
				// hammer the pages the crashed history was hot on.
				rng := rand.New(rand.NewSource(seed + 101*int64(trial) + int64(c)))
				pick := workload.HotZipf(rng, pages)
				nextID := model.OpID(len(ops) + 1 + c*fx.Requests)
				for r := 0; r < fx.Requests; r++ {
					p := pick()
					if (r+1)%writeEvery == 0 {
						op := model.ReadWrite(nextID, "client", []model.Var{p}, []model.Var{p})
						nextID++
						if err := eng.Exec(op); err != nil {
							errs[c] = err
							return
						}
					} else {
						if _, err := eng.Read(p); err != nil {
							errs[c] = err
							return
						}
						if firsts[c] == 0 {
							firsts[c] = time.Since(start)
						}
					}
					// A request boundary: a real client hands the connection
					// back between RPCs. Without the yield, one goroutine's
					// request loop can monopolize a single-CPU scheduler for
					// tens of milliseconds of lazy-redo work and the other
					// clients' first reads would measure scheduler occupancy,
					// not recovery availability.
					runtime.Gosched()
				}
			}(c)
		}
		wg.Wait()
		<-eng.Done() // the sweeper drains whatever the clients left cold
		eng.Close()
		for _, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("bench client: %w", err)
			}
		}
		st := eng.Stats()
		onlines = append(onlines, st.FullRecovery)
		rep.PerTrial = append(rep.PerTrial, trialStat{
			Components: st.Components,
			Reads:      st.Reads, Writes: st.Writes,
			Lazy: st.Lazy, Swept: st.Swept,
		})
		ttfrs = append(ttfrs, firsts...)
	}

	// The engine is fresh per trial, so its counters are per-trial
	// facts; the headline numbers are their means.
	for _, ts := range rep.PerTrial {
		rep.Reads += float64(ts.Reads)
		rep.Writes += float64(ts.Writes)
		rep.Lazy += float64(ts.Lazy)
		rep.Swept += float64(ts.Swept)
	}
	n := float64(len(rep.PerTrial))
	rep.Reads, rep.Writes, rep.Lazy, rep.Swept = rep.Reads/n, rep.Writes/n, rep.Lazy/n, rep.Swept/n

	sort.Slice(ttfrs, func(i, j int) bool { return ttfrs[i] < ttfrs[j] })
	sort.Slice(onlines, func(i, j int) bool { return onlines[i] < onlines[j] })
	sort.Slice(offlines, func(i, j int) bool { return offlines[i] < offlines[j] })
	rep.samples = len(ttfrs)
	rep.TTFR.P50Ns = int64(pct(ttfrs, 50))
	rep.TTFR.P99Ns = int64(pct(ttfrs, 99))
	rep.TTFR.MaxNs = int64(ttfrs[len(ttfrs)-1])
	rep.OfflineRecoveryNs = int64(pct(offlines, 50))
	rep.OnlineRecoveryNs = int64(pct(onlines, 50))
	if rep.OfflineRecoveryNs > 0 {
		rep.Ratio = round3(float64(rep.TTFR.P99Ns) / float64(rep.OfflineRecoveryNs))
	}
	return rep, nil
}

// pct returns the p-th percentile of a sorted duration slice
// (nearest-rank definition).
func pct(d []time.Duration, p float64) time.Duration {
	i := int(math.Ceil(p/100*float64(len(d)))) - 1
	return d[max(0, min(i, len(d)-1))]
}

func round3(x float64) float64 { return float64(int64(x*1000+0.5)) / 1000 }
