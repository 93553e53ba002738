// Command redobench measures parallel redo recovery against the
// sequential Figure 6 procedure on a large multi-component fixture and
// writes the results as JSON (the BENCH_parallel.json artifact):
//
//	redobench -out BENCH_parallel.json
//
// The fixture is the heavy single-page workload: every page's operation
// chain is an independent component of the redo partition, and each
// replayed operation performs real recomputation, so the benchmark
// exercises the partitioned engine rather than scheduling overhead.
//
// The command enforces the perf contract and exits non-zero when it is
// broken:
//
//   - with ≥2 CPUs available, parallel recovery at the widest worker
//     count must beat sequential recovery (speedup > 1);
//   - on a single CPU, where no wall-clock speedup is physically
//     possible, parallel recovery must stay within a small overhead
//     tolerance of sequential — the engine may not make recovery worse
//     on the hardware it happens to land on;
//   - with -baseline pointing at a checked-in report, allocs_per_op may
//     not regress more than -allocs.tolerance (default 10%) against it,
//     for sequential recovery and for every matching worker count;
//   - instrumented (metrics-only recorder) and traced (full event
//     stream into a flight-recorder ring) recovery may not exceed
//     -obs.tolerance and -trace.tolerance times a bare run measured in
//     interleaved repetitions with it (both default 1.05) — adjacency
//     keeps machine drift out of the ratio.
//
// With -trace.out the command additionally runs one fully traced
// parallel recovery on the fixture and writes the causal trace
// artifact for redotrace to profile.
//
// With -baseline the command also prints a delta table (time and
// allocations against the baseline) and carries the baseline's trend
// history forward: each report embeds a "history" array of prior runs'
// num_cpu, gomaxprocs, and allocation numbers, so the checked-in
// artifact records how the hot path evolved.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"redotheory/internal/method"
	"redotheory/internal/model"
	"redotheory/internal/obs"
	"redotheory/internal/rtrace"
	"redotheory/internal/sim"
	"redotheory/internal/trendlog"
	"redotheory/internal/workload"
)

// measurement is one benchmarked configuration.
type measurement struct {
	Name    string  `json:"name"`
	Workers int     `json:"workers,omitempty"`
	NsPerOp int64   `json:"ns_per_op"`
	Runs    int     `json:"runs"`
	Bytes   int64   `json:"bytes_per_op"`
	Allocs  int64   `json:"allocs_per_op"`
	Speedup float64 `json:"speedup_vs_sequential,omitempty"`
}

// report is the BENCH_parallel.json schema.
type report struct {
	GeneratedAt string `json:"generated_at"`
	GoMaxProcs  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	Fixture     struct {
		Ops        int    `json:"ops"`
		Pages      int    `json:"pages"`
		Rounds     int    `json:"compute_rounds"`
		Method     string `json:"method"`
		Components int    `json:"components"`
		Largest    int    `json:"largest_component"`
	} `json:"fixture"`
	Sequential measurement   `json:"sequential"`
	Parallel   []measurement `json:"parallel"`
	// Instrumentation is the telemetry overhead experiment: sequential
	// recovery with a metrics-only recorder attached (no event sink)
	// versus the uninstrumented baseline.
	Instrumentation struct {
		Observed  measurement `json:"observed"`
		Ratio     float64     `json:"ratio_vs_uninstrumented"`
		Tolerance float64     `json:"tolerance"`
	} `json:"instrumentation"`
	// Tracing is the causal-tracing overhead experiment: the same
	// sequential recovery with full tracing on — a recorder sinking
	// span/verdict events into a bounded flight-recorder ring, the
	// always-on-capable configuration — versus the untraced baseline.
	Tracing struct {
		Observed  measurement `json:"observed"`
		Ratio     float64     `json:"ratio_vs_untraced"`
		Tolerance float64     `json:"tolerance"`
	} `json:"tracing"`
	// History is the allocation trend: one entry per prior benchmark
	// run, carried forward from the -baseline report (oldest first,
	// deduped and capped by trendlog.Append).
	History []trend `json:"history,omitempty"`
	Verdict string  `json:"verdict"`
}

// trend is one historical run in the report's trend log.
type trend struct {
	GeneratedAt string `json:"generated_at"`
	NumCPU      int    `json:"num_cpu"`
	GoMaxProcs  int    `json:"gomaxprocs"`
	SeqNsPerOp  int64  `json:"sequential_ns_per_op"`
	SeqAllocs   int64  `json:"sequential_allocs_per_op"`
	ParNsPerOp  int64  `json:"parallel_ns_per_op"`
	ParAllocs   int64  `json:"parallel_allocs_per_op"`
	ParWorkers  int    `json:"parallel_workers"`
}

// trendOf summarises a report as a trend entry, using its widest
// parallel measurement.
func trendOf(r *report) trend {
	t := trend{
		GeneratedAt: r.GeneratedAt,
		NumCPU:      r.NumCPU,
		GoMaxProcs:  r.GoMaxProcs,
		SeqNsPerOp:  r.Sequential.NsPerOp,
		SeqAllocs:   r.Sequential.Allocs,
	}
	if n := len(r.Parallel); n > 0 {
		wide := r.Parallel[n-1]
		t.ParNsPerOp = wide.NsPerOp
		t.ParAllocs = wide.Allocs
		t.ParWorkers = wide.Workers
	}
	return t
}

func main() {
	out := flag.String("out", "BENCH_parallel.json", "output path for the JSON report")
	nOps := flag.Int("ops", 512, "operations in the fixture log")
	nPages := flag.Int("pages", 16, "pages (= independent components) in the fixture")
	rounds := flag.Int("rounds", 400, "recomputation rounds per replayed operation")
	tolerance := flag.Float64("tolerance", 1.25, "single-CPU gate: max allowed parallel/sequential time ratio")
	obsTolerance := flag.Float64("obs.tolerance", 1.05, "instrumentation gate: max allowed instrumented/uninstrumented time ratio")
	traceTolerance := flag.Float64("trace.tolerance", 1.05, "tracing gate: max allowed traced/untraced time ratio (tracing into the flight-recorder ring)")
	traceOut := flag.String("trace.out", "", "also run one traced parallel recovery on the fixture and write the trace artifact here (redotrace's input)")
	baseline := flag.String("baseline", "", "checked-in report to gate allocations against and inherit trend history from")
	allocsTolerance := flag.Float64("allocs.tolerance", 1.10, "baseline gate: max allowed allocs_per_op ratio vs the baseline")
	reps := flag.Int("reps", 3, "benchmark repetitions per configuration; the fastest is reported (damps scheduler noise in the ratio gates)")
	debugAddr := flag.String("debug.addr", "", "serve net/http/pprof, expvar, and /metrics on this address while benchmarking (e.g. localhost:6060)")
	flag.Parse()

	var base *report
	if *baseline != "" {
		data, err := os.ReadFile(*baseline)
		if err != nil {
			fatal(fmt.Errorf("reading baseline: %w", err))
		}
		base = new(report)
		if err := json.Unmarshal(data, base); err != nil {
			fatal(fmt.Errorf("parsing baseline %s: %w", *baseline, err))
		}
	}

	benchRec := obs.New()
	if *debugAddr != "" {
		_, addr, err := obs.ServeDebug(*debugAddr, func() any {
			s := benchRec.Snapshot()
			return &s
		})
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "redobench: debug server (pprof, expvar, /metrics) on http://%s\n", addr)
	}

	pages := workload.Pages(*nPages)
	s0 := workload.InitialState(pages)
	ops := workload.HeavySinglePage(*nOps, pages, *rounds, 42)
	physiological := func(s *model.State) method.DB { return method.NewPhysiological(s) }
	db, err := sim.BuildCrashed(physiological, s0, ops, len(ops), sim.Sched{ForceOnCrash: true}, nil)
	if err != nil {
		fatal(err)
	}

	// One recovery up front: sanity-check the fixture shape and the
	// parallel engine's agreement with the sequential procedure before
	// timing anything.
	seq, err := method.Recover(db)
	if err != nil {
		fatal(err)
	}
	probe, err := method.RecoverParallel(db, method.ParallelOptions{Workers: 4})
	if err != nil {
		fatal(err)
	}
	if err := probe.SameOutcome(seq); err != nil {
		fatal(fmt.Errorf("parallel recovery diverged from sequential: %w", err))
	}

	var rep report
	rep.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	rep.GoMaxProcs = runtime.GOMAXPROCS(0)
	rep.NumCPU = runtime.NumCPU()
	rep.Fixture.Ops = *nOps
	rep.Fixture.Pages = *nPages
	rep.Fixture.Rounds = *rounds
	rep.Fixture.Method = db.Name()
	plan := probe.Plan()
	rep.Fixture.Components = plan.Components
	rep.Fixture.Largest = plan.Largest

	rep.Sequential = measure("sequential", 0, *reps, func() error {
		_, err := method.Recover(db)
		return err
	})

	workerCounts := []int{1, 2, 4, 8}
	for _, w := range workerCounts {
		w := w
		m := measure(fmt.Sprintf("workers=%d", w), w, *reps, func() error {
			_, err := method.RecoverParallel(db, method.ParallelOptions{Workers: w})
			return err
		})
		m.Speedup = round3(float64(rep.Sequential.NsPerOp) / float64(m.NsPerOp))
		rep.Parallel = append(rep.Parallel, m)
	}

	// Telemetry overhead: the same sequential recovery with a live
	// metrics recorder (counters, phase spans; no event sink — the
	// always-on configuration). The gate keeps instrumentation honest:
	// observability may not tax recovery beyond the tolerance.
	bareFn := func() error {
		_, err := method.Recover(db)
		return err
	}
	_, instrumented, obsRatio := measurePair("sequential", "sequential+obs", *reps, bareFn, func() error {
		_, err := method.RecoverObserved(db, benchRec)
		return err
	})
	rep.Instrumentation.Observed = instrumented
	rep.Instrumentation.Ratio = round3(obsRatio)
	rep.Instrumentation.Tolerance = *obsTolerance

	// Tracing overhead: the same recovery with the event stream fully
	// on, sinking into a bounded flight ring — what a deployment would
	// leave attached permanently. The gate keeps the causal-tracing
	// layer always-on-capable: spans, ids, and timestamps may not tax
	// recovery beyond the tolerance.
	traceRec := obs.New()
	traceRec.SetSink(obs.NewFlightRecorder(4096))
	_, traced, traceRatio := measurePair("sequential", "sequential+trace", *reps, bareFn, func() error {
		_, err := method.RecoverObserved(db, traceRec)
		return err
	})
	traceRec.SetSink(nil)
	rep.Tracing.Observed = traced
	rep.Tracing.Ratio = round3(traceRatio)
	rep.Tracing.Tolerance = *traceTolerance

	wide := rep.Parallel[len(rep.Parallel)-1]
	fail := ""
	if rep.Instrumentation.Ratio > *obsTolerance {
		fail = fmt.Sprintf("instrumented recovery is %.3fx uninstrumented, over the %.2fx tolerance", rep.Instrumentation.Ratio, *obsTolerance)
	}
	if rep.Tracing.Ratio > *traceTolerance && fail == "" {
		fail = fmt.Sprintf("traced recovery is %.3fx untraced, over the %.2fx tolerance", rep.Tracing.Ratio, *traceTolerance)
	}
	if base != nil {
		// Inherit the baseline's trend log and append the baseline run
		// itself, so the committed artifact accumulates one entry per
		// regenerate.
		rep.History = trendlog.Append(base.History,
			func(t trend) string { return t.GeneratedAt }, trendOf(base))
		if msg := gateAllocs(&rep, base, *allocsTolerance); msg != "" && fail == "" {
			fail = msg
		}
	}
	if rep.GoMaxProcs >= 2 {
		best := 0.0
		for _, m := range rep.Parallel {
			if m.Workers >= 4 && m.Speedup > best {
				best = m.Speedup
			}
		}
		if best <= 1.0 {
			fail = fmt.Sprintf("parallel recovery at ≥4 workers is not faster than sequential (best speedup %.3f) on %d CPUs", best, rep.GoMaxProcs)
		} else {
			rep.Verdict = fmt.Sprintf("ok: best speedup %.3fx at ≥4 workers on %d CPUs", best, rep.GoMaxProcs)
		}
	} else {
		ratio := float64(wide.NsPerOp) / float64(rep.Sequential.NsPerOp)
		if ratio > *tolerance {
			fail = fmt.Sprintf("single CPU: parallel recovery is %.2fx sequential, over the %.2fx tolerance", ratio, *tolerance)
		} else {
			rep.Verdict = fmt.Sprintf("ok: single CPU, parallel within %.2fx of sequential (no speedup possible)", ratio)
		}
	}
	if fail != "" {
		rep.Verdict = "FAIL: " + fail
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}

	fmt.Printf("cpus: %d (GOMAXPROCS %d)\n", rep.NumCPU, rep.GoMaxProcs)
	fmt.Printf("fixture: %d ops over %d pages → %d components (largest %d)\n",
		*nOps, *nPages, rep.Fixture.Components, rep.Fixture.Largest)
	fmt.Printf("sequential: %s\n", fmtNs(rep.Sequential.NsPerOp))
	for _, m := range rep.Parallel {
		fmt.Printf("%-10s  %s  (%.3fx)\n", m.Name, fmtNs(m.NsPerOp), m.Speedup)
	}
	fmt.Printf("instrumented: %s (%.3fx of uninstrumented, tolerance %.2fx)\n",
		fmtNs(rep.Instrumentation.Observed.NsPerOp), rep.Instrumentation.Ratio, *obsTolerance)
	fmt.Printf("traced:       %s (%.3fx of untraced, tolerance %.2fx)\n",
		fmtNs(rep.Tracing.Observed.NsPerOp), rep.Tracing.Ratio, *traceTolerance)
	if *traceOut != "" {
		if err := writeTrace(db, *traceOut); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote trace artifact %s\n", *traceOut)
	}
	if base != nil {
		printDelta(&rep, base)
	}
	fmt.Printf("wrote %s\n%s\n", *out, rep.Verdict)
	if fail != "" {
		os.Exit(1)
	}
}

// writeTrace runs one parallel recovery on the fixture with full
// tracing into a memory sink and writes the causal trace artifact —
// the input redotrace profiles for its critical path, straggler table,
// and timeline.
func writeTrace(db method.DB, path string) error {
	rec := obs.New()
	ms := &obs.MemorySink{}
	rec.SetSink(ms)
	_, err := method.RecoverParallel(db, method.ParallelOptions{Workers: 4, Recorder: rec})
	rec.SetSink(nil)
	if err != nil {
		return fmt.Errorf("traced recovery: %w", err)
	}
	return rtrace.New("redobench -trace.out", ms.Events()).WriteFile(path)
}

// gateAllocs compares allocations against the baseline report:
// sequential recovery and every worker count present in both reports
// may not allocate more than tolerance times the baseline. Timing is
// deliberately not gated here — it is machine-dependent, while
// allocs_per_op is deterministic and comparable across machines.
func gateAllocs(rep, base *report, tolerance float64) string {
	check := func(name string, now, was int64) string {
		if was > 0 && float64(now) > float64(was)*tolerance {
			return fmt.Sprintf("%s allocs_per_op regressed %d → %d (%.2fx, over the %.2fx baseline tolerance)",
				name, was, now, float64(now)/float64(was), tolerance)
		}
		return ""
	}
	if msg := check("sequential", rep.Sequential.Allocs, base.Sequential.Allocs); msg != "" {
		return msg
	}
	baseByWorkers := make(map[int]measurement, len(base.Parallel))
	for _, m := range base.Parallel {
		baseByWorkers[m.Workers] = m
	}
	for _, m := range rep.Parallel {
		if was, ok := baseByWorkers[m.Workers]; ok {
			if msg := check(m.Name, m.Allocs, was.Allocs); msg != "" {
				return msg
			}
		}
	}
	return ""
}

// printDelta prints the per-configuration deltas against the baseline.
func printDelta(rep, base *report) {
	fmt.Printf("delta vs baseline (%s):\n", base.GeneratedAt)
	fmt.Printf("  %-14s %12s %12s %8s %10s %10s %8s\n", "config", "base ns/op", "ns/op", "Δns", "base allocs", "allocs", "Δallocs")
	row := func(name string, b, n measurement) {
		fmt.Printf("  %-14s %12d %12d %7s%% %10d %10d %7s%%\n",
			name, b.NsPerOp, n.NsPerOp, pct(b.NsPerOp, n.NsPerOp), b.Allocs, n.Allocs, pct(b.Allocs, n.Allocs))
	}
	row("sequential", base.Sequential, rep.Sequential)
	baseByWorkers := make(map[int]measurement, len(base.Parallel))
	for _, m := range base.Parallel {
		baseByWorkers[m.Workers] = m
	}
	for _, m := range rep.Parallel {
		if b, ok := baseByWorkers[m.Workers]; ok {
			row(m.Name, b, m)
		}
	}
}

// pct formats the signed percentage change from a to b.
func pct(a, b int64) string {
	if a == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f", 100*float64(b-a)/float64(a))
}

// measure runs fn under the testing benchmark harness reps times and
// reports the fastest run: minimum-of-N damps scheduler and frequency
// noise, which matters for the ratio gates on small fixtures. Allocs
// are effectively deterministic; the minimum also sheds one-time pool
// warm-up from the first repetition.
func measure(name string, workers, reps int, fn func() error) measurement {
	var best measurement
	for i := 0; i < reps || i < 1; i++ {
		var failed error
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := fn(); err != nil {
					failed = err
					b.Fatal(err)
				}
			}
		})
		if failed != nil {
			fatal(failed)
		}
		m := measurement{
			Name:    name,
			Workers: workers,
			NsPerOp: r.NsPerOp(),
			Runs:    r.N,
			Bytes:   r.AllocedBytesPerOp(),
			Allocs:  r.AllocsPerOp(),
		}
		if i == 0 || m.NsPerOp < best.NsPerOp {
			best.Name, best.Workers, best.NsPerOp, best.Runs, best.Bytes = m.Name, m.Workers, m.NsPerOp, m.Runs, m.Bytes
		}
		if i == 0 || m.Allocs < best.Allocs {
			best.Allocs = m.Allocs
		}
	}
	return best
}

// measurePair interleaves repetitions of a bare and a loaded
// configuration and reports both minima plus the overhead ratio. The
// ratio gates resolve single-digit percentages, which machine drift
// (frequency scaling, a shared container's neighbors) swamps when the
// baseline is measured minutes away from the overhead configuration.
// Two defenses: each repetition runs the pair back-to-back and takes
// its own loaded/bare ratio, so drift that slows a whole repetition
// cancels inside the quotient; and the reported ratio is the minimum
// over repetitions — the noise-floor estimate of the true overhead,
// since noise only ever inflates a paired ratio's numerator or
// deflates its denominator by chance, never both systematically.
func measurePair(bareName, loadedName string, reps int, bareFn, loadedFn func() error) (bare, loaded measurement, ratio float64) {
	if reps < 5 {
		reps = 5
	}
	for i := 0; i < reps; i++ {
		b := measure(bareName, 0, 1, bareFn)
		l := measure(loadedName, 0, 1, loadedFn)
		r := float64(l.NsPerOp) / float64(b.NsPerOp)
		if i == 0 {
			bare, loaded, ratio = b, l, r
			continue
		}
		if r < ratio {
			ratio = r
		}
		if b.NsPerOp < bare.NsPerOp {
			bare.NsPerOp, bare.Runs, bare.Bytes = b.NsPerOp, b.Runs, b.Bytes
		}
		if l.NsPerOp < loaded.NsPerOp {
			loaded.NsPerOp, loaded.Runs, loaded.Bytes = l.NsPerOp, l.Runs, l.Bytes
		}
		if b.Allocs < bare.Allocs {
			bare.Allocs = b.Allocs
		}
		if l.Allocs < loaded.Allocs {
			loaded.Allocs = l.Allocs
		}
	}
	return bare, loaded, ratio
}

func round3(x float64) float64 { return float64(int64(x*1000+0.5)) / 1000 }

func fmtNs(ns int64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "redobench: %v\n", err)
	os.Exit(1)
}
