// Command redosim drives the crash/recovery experiments of Section 6:
//
//	redosim -matrix              # E9: methods × crash points, invariant audited at each
//	redosim -experiment splitlog # E10: B-tree split log volume, physiological vs generalized
//	redosim -walfault            # WAL fault injection: violations must be detected
//	redosim -campaign            # E18: media faults × methods, zero silent corruption
//	redosim -nested-crash        # E-series: crash recovery itself, supervised restart must converge
//	redosim -method genlsn -ops 50 -crash 30   # one run, verbose
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"redotheory/internal/btree"
	"redotheory/internal/core"
	"redotheory/internal/fault"
	"redotheory/internal/fuzz"
	"redotheory/internal/graph"
	"redotheory/internal/method"
	"redotheory/internal/model"
	"redotheory/internal/obs"
	"redotheory/internal/rtrace"
	"redotheory/internal/sim"
	"redotheory/internal/supervise"
	"redotheory/internal/trace"
	"redotheory/internal/workload"
)

func factory(name string) (sim.Factory, bool) {
	for _, f := range sim.DefaultMethods() {
		if f.Name == name {
			return f.New, true
		}
	}
	return nil, false
}

func main() {
	matrix := flag.Bool("matrix", false, "run the E9 crash matrix over all methods")
	experiment := flag.String("experiment", "", "named experiment: splitlog")
	walfault := flag.Bool("walfault", false, "run WAL fault injection")
	campaign := flag.Bool("campaign", false, "run the E18 media-fault campaign over all methods and fault kinds")
	nestedCrash := flag.Bool("nested-crash", false, "run the nested-crash campaign: crash recovery itself on every schedule and assert the supervised restart loop converges")
	shardsFlag := flag.String("shards", "", "comma-separated shard counts (e.g. 2,4): run the sharded certified-cut differential grid — per-shard recovery under the certified cut vs the merged single-log oracle — over all eligible methods × crash patterns × seeds")
	maxAttempts := flag.Int("max-attempts", 0, "with -nested-crash: supervised attempt budget per cell (0 = schedule length + 8)")
	progressCkpt := flag.Int("progress-ckpt", 0, "with -nested-crash: progress-checkpoint period K in installed ops (0 = after every install)")
	artifactDir := flag.String("out", "", "with -nested-crash: directory for fuzz repro artifacts of failing cells")
	seeds := flag.Int("seeds", 3, "with -campaign or -nested-crash: number of seeds per cell")
	workers := flag.Int("workers", 1, "worker pool size: -campaign runs cells concurrently; -matrix and -method also cross-check parallel partitioned recovery")
	methodName := flag.String("method", "", "single method to run")
	nOps := flag.Int("ops", 40, "operations in the workload")
	nPages := flag.Int("pages", 8, "pages in the database")
	crash := flag.Int("crash", -1, "crash after N ops (-1 = sweep all points)")
	seed := flag.Int64("seed", 1, "random seed")
	online := flag.Bool("online", false, "attach the live invariant auditor (page-LSN methods only)")
	emitTrace := flag.Bool("emit-trace", false, "with -method and -crash: print the crash as a redocheck trace (JSON) instead of a report")
	metricsOut := flag.String("metrics", "", "write a per-method telemetry report (redostats-compatible JSON) to this path; with -matrix it implies the partitioned cross-check so the full phase breakdown is observed")
	traceOut := flag.String("trace", "", "after the selected mode, trace one representative recovery per method (plus one supervised nested-crash run) and write the causal trace artifact (redotrace's input) to this path")
	debugAddr := flag.String("debug.addr", "", "serve net/http/pprof, expvar, and /metrics on this address for the duration of the run (e.g. localhost:6060)")
	flag.Parse()

	// The live metric sink: one recorder per method, shared by every run
	// of that method, snapshotted into the -metrics report and the debug
	// server's /metrics endpoint.
	var metrics *sim.CampaignMetrics
	if *metricsOut != "" || *debugAddr != "" {
		metrics = sim.NewCampaignMetrics()
	}
	if *debugAddr != "" {
		_, addr, err := obs.ServeDebug(*debugAddr, func() any { return metrics.Report("redosim -debug.addr") })
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "redosim: debug server (pprof, expvar, /metrics) on http://%s\n", addr)
	}

	// An empty seed list would fall through to the campaign's
	// zero-means-default seeds.
	if (*campaign || *nestedCrash || *shardsFlag != "") && *seeds < 1 {
		fmt.Fprintf(os.Stderr, "redosim: -seeds %d: must be at least 1\n", *seeds)
		os.Exit(2)
	}

	switch {
	case *matrix:
		runMatrix(*nOps, *nPages, *seed, *workers, metrics)
	case *experiment == "splitlog":
		runSplitLog(*seed)
	case *experiment != "":
		fmt.Fprintf(os.Stderr, "redosim: unknown experiment %q\n", *experiment)
		os.Exit(2)
	case *walfault:
		runWALFault(*nOps, *nPages, *seed)
	case *campaign:
		runCampaign(*nOps, *nPages, *seeds, *workers, metrics)
	case *nestedCrash:
		runNestedCrash(*nOps, *nPages, *seeds, *workers, *maxAttempts, *progressCkpt, *artifactDir, metrics)
	case *shardsFlag != "":
		runSharded(*shardsFlag, *nOps, *seeds, *artifactDir, metrics)
	case *emitTrace:
		if *methodName == "" || *crash < 0 {
			fmt.Fprintln(os.Stderr, "redosim: -emit-trace requires -method and -crash")
			os.Exit(2)
		}
		emitCrashTrace(*methodName, *nOps, *nPages, *crash, *seed)
	case *methodName != "":
		runOne(*methodName, *nOps, *nPages, *crash, *seed, *online, *workers, metrics)
	case *traceOut != "":
		// Trace-only run: no experiment mode, just the representative
		// recoveries traced below.
	default:
		flag.Usage()
		os.Exit(2)
	}

	if *metricsOut != "" {
		writeMetrics(metrics, *metricsOut, sourceLabel(*matrix, *campaign, *nestedCrash, *shardsFlag, *methodName))
	}
	if *traceOut != "" {
		writeTraceArtifact(*traceOut, *nOps, *nPages, *seed)
	}
}

// writeTraceArtifact traces representative recoveries into one causal
// trace artifact: one partitioned parallel recovery per method, plus
// one supervised run that crashes recovery itself once — so the
// artifact exhibits both the component fan-out and the attempt/restart
// span shapes. All recoveries share one recorder and sink; each opens
// its own trace id, so redotrace splits them back apart.
func writeTraceArtifact(path string, nOps, nPages int, seed int64) {
	rec := obs.New()
	ms := &obs.MemorySink{}
	rec.SetSink(ms)
	defer rec.SetSink(nil)

	pages := workload.Pages(nPages)
	s0 := workload.InitialState(pages)
	// Every history runs to its end with the whole log forced: a crash
	// that loses nothing, so recovery replays every unflushed record.
	crashed := func(name string) method.DB {
		ops, err := workload.ForMethod(name, nOps, pages, seed)
		if err != nil {
			fatal(err)
		}
		db, err := sim.BuildCrashed(factoryMust(name), s0, ops, len(ops), sim.Sched{ForceOnCrash: true}, nil)
		if err != nil {
			fatal(err)
		}
		return db
	}
	for _, f := range sim.DefaultMethods() {
		if _, err := method.RecoverParallel(crashed(f.Name), method.ParallelOptions{Workers: 4, Recorder: rec}); err != nil {
			fatal(fmt.Errorf("tracing %s: %w", f.Name, err))
		}
	}

	// One supervised recovery with a single nested crash: the trace gains
	// a supervise root with two attempt spans and their install batches.
	sup, err := supervise.Supervise(crashed("physiological"), supervise.Options{
		MaxAttempts:   8,
		ProgressEvery: 2,
		Seed:          seed,
		Crashes:       supervise.CrashPlan{Points: []int{1}},
		Recorder:      rec,
		Sleep:         func(time.Duration) {},
	})
	if err != nil {
		fatal(fmt.Errorf("tracing supervised recovery: %w", err))
	}
	if !sup.Converged {
		fatal(fmt.Errorf("tracing supervised recovery: did not converge"))
	}

	t := rtrace.New(sourceTraceLabel(nOps, nPages, seed), ms.Events())
	if err := t.Check(); err != nil {
		fatal(fmt.Errorf("trace self-check: %w", err))
	}
	if err := t.WriteFile(path); err != nil {
		fatal(err)
	}
	fmt.Printf("trace written to %s (%d events); profile with: redotrace %s\n", path, len(t.Events), path)
}

func sourceTraceLabel(nOps, nPages int, seed int64) string {
	return fmt.Sprintf("redosim -trace (ops=%d pages=%d seed=%d)", nOps, nPages, seed)
}

// sourceLabel names the producing mode for the report's source field.
func sourceLabel(matrix, campaign, nestedCrash bool, shards, methodName string) string {
	switch {
	case matrix:
		return "redosim -matrix"
	case campaign:
		return "redosim -campaign"
	case nestedCrash:
		return "redosim -nested-crash"
	case shards != "":
		return "redosim -shards " + shards
	case methodName != "":
		return "redosim -method " + methodName
	default:
		return "redosim"
	}
}

// writeMetrics snapshots the aggregator into the v1 report and writes
// it, warning (but not failing) on schema gaps — a single-method
// sequential run legitimately lacks the partition phases.
func writeMetrics(metrics *sim.CampaignMetrics, path, source string) {
	rep := metrics.Report(source)
	if err := rep.WriteFile(path); err != nil {
		fatal(err)
	}
	if err := rep.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "redosim: warning: %s is incomplete: %v\n", path, err)
	}
	fmt.Printf("metrics written to %s (%d methods); render with: redostats %s\n", path, len(rep.Methods), path)
}

func runMatrix(nOps, nPages int, seed int64, workers int, metrics *sim.CampaignMetrics) {
	pages := workload.Pages(nPages)
	s0 := workload.InitialState(pages)
	parallel := workers > 1
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	header := "method\tcrash points\trecovered\tinvariant held\treplayed ops\treplayed p50/p99\texamined records\trecovery wall\twall p50/p99"
	if parallel {
		header += "\tparallel agreed"
	}
	fmt.Fprintln(w, header)
	bad := false
	for _, f := range sim.DefaultMethods() {
		ops, err := workload.ForMethod(f.Name, nOps, pages, seed)
		if err != nil {
			fatal(err)
		}
		sweepWorkers := 0
		if parallel {
			sweepWorkers = workers
		}
		if metrics != nil && sweepWorkers == 0 {
			// The phase breakdown's decide/partition/replay/merge stages
			// only exist in the partitioned engine; observe it.
			sweepWorkers = 2
		}
		results, err := sim.Sweep(f.New, ops, s0, seed, sweepWorkers, metrics.Recorder(f.Name))
		if err != nil {
			fatal(err)
		}
		s := sim.Summarize(results)
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d/%d\t%d\t%s\t%s/%s",
			s.Method, s.Runs, s.Recovered, s.InvariantOK, s.Replayed,
			s.ReplayedP50, s.ReplayedP99, s.Examined,
			s.Wall.Round(time.Microsecond), s.WallP50.Round(time.Microsecond), s.WallP99.Round(time.Microsecond))
		if parallel {
			fmt.Fprintf(w, "\t%d", s.ParallelOK)
		}
		fmt.Fprintln(w)
		if s.Recovered != s.Runs || s.InvariantOK != s.Runs || s.ParallelOK != s.Runs {
			bad = true
		}
	}
	w.Flush()
	if bad {
		fmt.Println("\nRESULT: FAIL — some crash point did not recover, violated the invariant, or diverged under parallel replay")
		os.Exit(1)
	}
	if parallel {
		fmt.Printf("\nRESULT: all methods recovered at every crash point; parallel replay (%d workers) agreed everywhere\n", workers)
		return
	}
	fmt.Println("\nRESULT: all methods recovered at every crash point with the invariant holding")
}

func runSplitLog(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]int64, 2000)
	for i := range keys {
		keys[i] = rng.Int63n(10_000_000)
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "order\tsplits\tphysio split bytes\tgenlsn split bytes\tratio\tphysio total\tgenlsn total")
	for _, order := range []int{8, 16, 32, 64} {
		physio := method.NewPhysiological(model.NewState())
		trP := btree.New(physio, btree.PhysiologicalSplit, order, 1)
		gen := method.NewGenLSN(model.NewState())
		trG := btree.New(gen, btree.GeneralizedSplit, order, 1)
		for _, k := range keys {
			if err := trP.Insert(k); err != nil {
				fatal(err)
			}
			if err := trG.Insert(k); err != nil {
				fatal(err)
			}
		}
		pSplit, gSplit := btree.SplitLogBytes(physio.Log()), btree.SplitLogBytes(gen.Log())
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%.2fx\t%d\t%d\n",
			order, trP.Splits, pSplit, gSplit, float64(pSplit)/float64(gSplit),
			physio.Stats().LogBytes, gen.Stats().LogBytes)
	}
	w.Flush()
	fmt.Println("\nratio = physiological / generalized split-record bytes; the gap is the physically-logged moved half (Section 6.4)")
}

func runWALFault(nOps, nPages int, seed int64) {
	pages := workload.Pages(nPages)
	s0 := workload.InitialState(pages)
	ops := workload.SinglePage(nOps, pages, seed, false)
	detected, runs := 0, 0
	for crashAt := 1; crashAt <= len(ops); crashAt++ {
		res, err := sim.Run(factoryMust("physiological"), sim.Config{
			Ops: ops, Initial: s0, CrashAfter: crashAt,
			Sched:      sim.Sched{Seed: seed + int64(crashAt), FlushProb: 0.6, ForceProb: 0.05, CheckpointProb: 0.1},
			DisableWAL: true,
		})
		if err != nil {
			fatal(err)
		}
		runs++
		if !res.InvariantOK || !res.Recovered {
			detected++
			if detected == 1 {
				fmt.Printf("first detection at crash point %d (invariant ok=%v, recovered=%v):\n",
					crashAt, res.InvariantOK, res.Recovered)
				for _, v := range res.Violations {
					fmt.Printf("  %s\n", v)
				}
			}
		}
	}
	fmt.Printf("\nWAL disabled: %d/%d crash points produced a detectable invariant violation\n", detected, runs)
	if detected == 0 {
		fmt.Println("RESULT: FAIL — fault injection was inert")
		os.Exit(1)
	}
	fmt.Println("RESULT: the checker catches write-ahead-log violations")
}

// runCampaign sweeps methods × fault kinds × crash points × seeds,
// classifying every run; the headline assertion is zero silent
// corruption across the whole matrix.
func runCampaign(nOps, nPages, nSeeds, workers int, metrics *sim.CampaignMetrics) {
	seeds := make([]int64, 0, nSeeds)
	for i := 0; i < nSeeds; i++ {
		seeds = append(seeds, int64(i+1))
	}
	results, err := sim.Campaign(sim.CampaignConfig{
		Methods:      sim.DefaultMethods(),
		NumOps:       nOps,
		NumPages:     nPages,
		CrashPoints:  []int{0, nOps / 2, nOps},
		Seeds:        seeds,
		TruncateProb: 0.5,
		Workers:      workers,
		Metrics:      metrics,
	})
	if err != nil {
		fatal(err)
	}
	sum := sim.SummarizeCampaign(results)

	outcomes := []sim.Outcome{sim.RecoveredExact, sim.RecoveredDegraded,
		sim.DetectedUnrecoverable, sim.FaultNotFired, sim.SilentCorruption}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "fault kind\texact\tdegraded\tunrecoverable\tnot fired\tSILENT")
	for _, k := range fault.Kinds() {
		by := sum.ByKind[k]
		fmt.Fprintf(w, "%s", k)
		for _, o := range outcomes {
			fmt.Fprintf(w, "\t%d", by[o])
		}
		fmt.Fprintln(w)
	}
	w.Flush()

	fmt.Println()
	w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "method\texact\tdegraded\tunrecoverable\tnot fired\tSILENT")
	for _, m := range sum.Methods() {
		by := sum.ByMethod[m]
		fmt.Fprintf(w, "%s", m)
		for _, o := range outcomes {
			fmt.Fprintf(w, "\t%d", by[o])
		}
		fmt.Fprintln(w)
	}
	w.Flush()

	fmt.Printf("\n%d runs: %d exact, %d degraded, %d unrecoverable, %d not fired, %d silent\n",
		sum.Runs, sum.ByOutcome[sim.RecoveredExact], sum.ByOutcome[sim.RecoveredDegraded],
		sum.ByOutcome[sim.DetectedUnrecoverable], sum.ByOutcome[sim.FaultNotFired], sum.Silent)
	if sum.Silent != 0 {
		for _, r := range results {
			if r.Outcome == sim.SilentCorruption {
				fmt.Printf("  SILENT: %s/%s crash=%d seed=%d\n", r.Method, r.Kind, r.CrashAfter, r.Seed)
			}
		}
		fmt.Println("RESULT: FAIL — silent corruption detected")
		os.Exit(1)
	}
	fmt.Println("RESULT: zero silent corruption — every media fault was repaired, degraded, or detected")
}

// runNestedCrash sweeps methods × seeds × crash points × nested-crash
// schedules, crashing *recovery itself* per schedule and supervising the
// restart loop; the headline assertion is that every cell converges to
// the determined state with strictly monotone install progress.
func runNestedCrash(nOps, nPages, nSeeds, workers, maxAttempts, progressEvery int, outDir string, metrics *sim.CampaignMetrics) {
	seeds := make([]int64, 0, nSeeds)
	for i := 0; i < nSeeds; i++ {
		seeds = append(seeds, int64(i+1))
	}
	results, err := sim.NestedCrashCampaign(sim.NestedCrashConfig{
		Methods:       sim.DefaultMethods(),
		NumOps:        nOps,
		NumPages:      nPages,
		Seeds:         seeds,
		MaxAttempts:   maxAttempts,
		ProgressEvery: progressEvery,
		Workers:       workers,
		Metrics:       metrics,
	})
	if err != nil {
		fatal(err)
	}
	sum := sim.SummarizeNestedCrash(results)

	type agg struct{ ok, cells, crashes, attempts, installs, ckpts, escalations int }
	byMethod := make(map[string]*agg)
	for _, r := range results {
		a := byMethod[r.Method]
		if a == nil {
			a = &agg{}
			byMethod[r.Method] = a
		}
		a.cells++
		if r.OK() {
			a.ok++
		}
		a.crashes += r.CrashesInjected
		a.attempts += r.Attempts
		a.installs += r.TotalInstalls
		a.ckpts += r.ProgressCheckpoints
		a.escalations += r.Escalations
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "method\tcells\tok\tnested crashes\tattempts\tinstalls\tprogress ckpts\tescalations")
	for _, m := range sum.Methods() {
		a := byMethod[m]
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			m, a.cells, a.ok, a.crashes, a.attempts, a.installs, a.ckpts, a.escalations)
	}
	w.Flush()

	fmt.Printf("\n%d cells: %d converged (%d parallel / %d sequential / %d degraded), %d nested crashes injected, %d attempts total\n",
		sum.Runs, sum.Converged,
		sum.ByRung[supervise.RungParallel], sum.ByRung[supervise.RungSequential], sum.ByRung[supervise.RungDegraded],
		sum.TotalCrashes, sum.TotalAttempts)

	if sum.NonConverged+sum.OracleMismatches+sum.MonotoneViolations+sum.Errors == 0 {
		fmt.Println("RESULT: every crashed recovery converged to the determined state with monotone install progress")
		return
	}
	n := 0
	for _, r := range results {
		if r.OK() {
			continue
		}
		check, detail := nestedFailure(r)
		fmt.Printf("  FAIL: %s crash=%d seed=%d schedule=%v: %s (%s)\n",
			r.Method, r.CrashAfter, r.Seed, r.Schedule, check, detail)
		if outDir != "" {
			writeNestedArtifact(outDir, n, r, nPages, check, detail)
		}
		n++
	}
	fmt.Printf("RESULT: FAIL — %d non-converged, %d oracle mismatches, %d monotonicity violations, %d errors\n",
		sum.NonConverged, sum.OracleMismatches, sum.MonotoneViolations, sum.Errors)
	os.Exit(1)
}

// nestedFailure classifies a failing cell with the supervised oracle
// leg's check names, so the repro artifact replays under the same label.
func nestedFailure(r *sim.NestedCrashResult) (check, detail string) {
	switch {
	case r.Err != "":
		return "supervised-error", r.Err
	case !r.Converged:
		return "supervised-nonconvergence", fmt.Sprintf("exhausted %d attempts (rung %s)", r.Attempts, r.Rung)
	case !r.OracleMatch:
		return "supervised-oracle", fmt.Sprintf("converged state diverges from the determined state (rung %s)", r.Rung)
	default:
		return "supervised-monotonicity", "an attempt installed work without advancing the install measure"
	}
}

// writeNestedArtifact exports a failing cell as a fuzz v2 repro. The
// campaign and the fuzzer execute through the same crash loop, so the
// schedule the cell ran re-creates the identical crash state and the
// artifact's nested_crash field drives the supervised leg through the
// same restart storm.
func writeNestedArtifact(dir string, i int, r *sim.NestedCrashResult, nPages int, check, detail string) {
	cell := fuzz.Cell{
		History:     fuzz.History{Method: r.Method, Shape: "nested-crash-campaign", Pages: nPages, Ops: r.Ops},
		Crash:       r.CrashAfter,
		Schedule:    r.Sched,
		NestedCrash: r.Schedule,
	}
	art := fuzz.NewArtifact(cell, check, detail)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("nestedcrash-%03d.json", i))
	if err := art.WriteFile(path); err != nil {
		fatal(err)
	}
	fmt.Printf("  artifact: %s (replay with: redofuzz -repro %s)\n", path, path)
}

// shardRepro is the self-contained repro artifact for a failing
// sharded differential cell: feeding these fields back into
// sim.CheckSharded re-creates the exact run.
type shardRepro struct {
	Schema        string `json:"schema"`
	Method        string `json:"method"`
	Shards        int    `json:"shards"`
	Ops           int    `json:"ops"`
	PagesPerShard int    `json:"pages_per_shard"`
	CrossEvery    int    `json:"cross_every"`
	Seed          int64  `json:"seed"`
	Crashes       []int  `json:"crashes"`
	Check         string `json:"check"`
	Detail        string `json:"detail"`
}

// runSharded sweeps the sharded certified-cut differential grid:
// eligible methods × shard counts × crash patterns (synchronized and
// per-shard staggered) × seeds. Every cell executes a cross-shard
// history, crashes the shards at their configured points, computes the
// certified cut, recovers each shard from its cut prefix (sequential
// and parallel), audits each shard's projection with the invariant
// checker, and compares the union against the merged single-log
// oracle. Any divergence is a distributed-recovery bug; failing cells
// are exported as repro artifacts when -out is set.
func runSharded(shardsFlag string, nOps, nSeeds int, outDir string, metrics *sim.CampaignMetrics) {
	var counts []int
	for _, part := range strings.Split(shardsFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			fatal(fmt.Errorf("bad -shards value %q", part))
		}
		counts = append(counts, n)
	}

	type agg struct {
		cells, ok, cross, skipped int
		droppedTxns, droppedRecs  int
		cutRecs, stableRecs       int
	}
	var keys []string
	byKey := make(map[string]*agg)
	var failures []shardRepro

	for _, m := range sim.ShardableMethods() {
		for _, nShards := range counts {
			key := fmt.Sprintf("%s\t%d", m.Name, nShards)
			a := &agg{}
			keys = append(keys, key)
			byKey[key] = a
			for _, stagger := range []bool{false, true} {
				for s := 0; s < nSeeds; s++ {
					seed := int64(s + 1)
					crashes := sim.DeriveCrashes(seed, nOps, nShards, stagger)
					check, err := sim.CheckSharded(sim.ShardedConfig{
						Method:   m,
						Shards:   nShards,
						NumOps:   nOps,
						Seed:     seed,
						Crashes:  crashes,
						Recorder: metrics.Recorder(m.Name),
					})
					if err != nil {
						fatal(err)
					}
					a.cells++
					a.cross += check.CrossTxns
					a.skipped += check.Skipped
					a.droppedTxns += check.DroppedTxns
					a.droppedRecs += check.DroppedRecords
					a.cutRecs += check.CutRecords
					a.stableRecs += check.StableRecords
					if check.OK() {
						a.ok++
						continue
					}
					failures = append(failures, shardRepro{
						Schema:        "redotheory/shardrepro/v1",
						Method:        m.Name,
						Shards:        nShards,
						Ops:           nOps,
						PagesPerShard: 4,
						CrossEvery:    3,
						Seed:          seed,
						Crashes:       crashes,
						Check:         "sharded-oracle",
						Detail:        check.Mismatch,
					})
				}
			}
		}
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "method\tshards\tcells\tok\tcross txns\trefused ops\tdropped txns\tdropped records\tcut/stable records")
	for _, key := range keys {
		a := byKey[key]
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d/%d\n",
			key, a.cells, a.ok, a.cross, a.skipped, a.droppedTxns, a.droppedRecs, a.cutRecs, a.stableRecs)
	}
	w.Flush()

	if len(failures) == 0 {
		fmt.Println("\nRESULT: sharded recovery from the certified cut matched the merged-log oracle in every cell")
		return
	}
	for i, f := range failures {
		fmt.Printf("  FAIL: %s×%d seed=%d crashes=%v: %s\n", f.Method, f.Shards, f.Seed, f.Crashes, f.Detail)
		if outDir != "" {
			writeShardArtifact(outDir, i, f)
		}
	}
	fmt.Printf("RESULT: FAIL — %d sharded differential cells diverged\n", len(failures))
	os.Exit(1)
}

// writeShardArtifact exports a failing sharded cell as a JSON repro.
func writeShardArtifact(dir string, i int, f shardRepro) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("shardrepro-%03d.json", i))
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("  artifact: %s\n", path)
}

func runOne(name string, nOps, nPages, crash int, seed int64, online bool, workers int, metrics *sim.CampaignMetrics) {
	mk, ok := factory(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "redosim: unknown method %q\n", name)
		os.Exit(2)
	}
	pages := workload.Pages(nPages)
	s0 := workload.InitialState(pages)
	ops, err := workload.ForMethod(name, nOps, pages, seed)
	if err != nil {
		fatal(err)
	}
	parWorkers := 0
	if workers > 1 {
		parWorkers = workers
	}
	if crash < 0 {
		results, err := sim.Sweep(mk, ops, s0, seed, parWorkers, metrics.Recorder(name))
		if err != nil {
			fatal(err)
		}
		s := sim.Summarize(results)
		fmt.Printf("%s: %d/%d crash points recovered, invariant held at %d/%d\n",
			s.Method, s.Recovered, s.Runs, s.InvariantOK, s.Runs)
		fmt.Printf("replayed %d ops (p50/p99 %d/%d per point); recovery wall %s (p50/p99 %s/%s)\n",
			s.Replayed, s.ReplayedP50, s.ReplayedP99,
			s.Wall.Round(time.Microsecond), s.WallP50.Round(time.Microsecond), s.WallP99.Round(time.Microsecond))
		if parWorkers > 0 {
			fmt.Printf("parallel replay (%d workers) agreed at %d/%d crash points\n",
				parWorkers, s.ParallelOK, s.Runs)
			if s.ParallelOK != s.Runs {
				os.Exit(1)
			}
		}
		return
	}
	res, err := sim.Run(mk, sim.Config{Ops: ops, Initial: s0, CrashAfter: crash, Sched: sim.DefaultSched(seed), OnlineAudit: online, ParallelWorkers: parWorkers, Recorder: metrics.Recorder(name)})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("method         %s\n", res.Method)
	if online {
		fmt.Printf("online audits  %d (all ok: %v)\n", res.OnlineAudits, res.OnlineOK)
	}
	fmt.Printf("crash point    %d of %d ops\n", crash, len(ops))
	fmt.Printf("stable ops     %d\n", res.StableOps)
	fmt.Printf("replayed       %d (examined %d records)\n", res.Replayed, res.Examined)
	fmt.Printf("recovered      %v\n", res.Recovered)
	fmt.Printf("invariant ok   %v\n", res.InvariantOK)
	if parWorkers > 0 {
		fmt.Printf("parallel       agrees=%v components=%d workers=%d\n",
			res.ParallelAgrees, res.ParallelComponents, parWorkers)
	}
	for _, v := range res.Violations {
		fmt.Printf("  violation: %s\n", v)
	}
	fmt.Printf("stats          %+v\n", res.Stats)
	if !res.Recovered || !res.InvariantOK || !res.ParallelAgrees {
		os.Exit(1)
	}
}

// emitCrashTrace replays one crash scenario and prints it as a
// redocheck-compatible trace: the stable log's operations with their
// written values, the stable state, and the installed set the method's
// redo test implies. Pipe it into redocheck:
//
//	redosim -emit-trace -method genlsn -ops 30 -crash 20 | redocheck -
func emitCrashTrace(name string, nOps, nPages, crash int, seed int64) {
	mk, ok := factory(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "redosim: unknown method %q\n", name)
		os.Exit(2)
	}
	pages := workload.Pages(nPages)
	s0 := workload.InitialState(pages)
	ops, err := workload.ForMethod(name, nOps, pages, seed)
	if err != nil {
		fatal(err)
	}
	db, err := sim.BuildCrashed(mk, s0, ops, crash, sim.Sched{Seed: seed, FlushProb: 0.3, ForceProb: 0.2}, nil)
	if err != nil {
		fatal(err)
	}
	stableLog := db.StableLog()
	redoSet, err := core.PredictRedoSet(db.StableState(), stableLog, db.Checkpointed(), db.RedoTest(), db.Analyze())
	if err != nil {
		fatal(err)
	}
	installed := graph.NewSet[model.OpID]()
	for _, op := range stableLog.Ops() {
		if !redoSet.Has(op.ID()) {
			installed.Add(op.ID())
		}
	}
	tr, err := trace.Capture(stableLog.Ops(), db.RecoveryBase(), db.StableState(), installed)
	if err != nil {
		fatal(err)
	}
	data, err := tr.Encode()
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(data))
}

func factoryMust(name string) sim.Factory {
	mk, ok := factory(name)
	if !ok {
		panic(name)
	}
	return mk
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "redosim: %v\n", err)
	os.Exit(1)
}
