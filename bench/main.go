// Command bench is the repository's benchmark: five undiluted workloads
// over the public functions of redotheory/internal/..., every output
// checked against an oracle, end-to-end metrics from an untraced run and
// per-layer metrics from a shorter traced one. README.md has the tables.
//
//	go run . -workload restart-cold -seed 1 -seconds 10 -trace 0   one driver run
//	go run .                                                       the whole suite
//	go run . -repeat 2                                             repeatability self-check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"redotheory/internal/rtrace"
)

func main() {
	runtime.GOMAXPROCS(maxProcs)
	var (
		workload = flag.String("workload", "", "run this one workload and print one JSON result line (the driver's mode); empty runs the whole suite")
		seed     = flag.Int64("seed", defaultSeed, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", defaultSeconds, "wall budget of a workload's timed paths; a traced run takes half")
		trace    = flag.Int("trace", 0, "1: traced run, per-layer metrics, writes <out>/trace-<workload>.json")
		repeat   = flag.Int("repeat", 0, "run the whole suite this many times and compare the runs")
		rounds   = flag.Int("rounds", 0, "hypothesis H1 only: restart-cold over HeavyHotPage(rounds) instead of HotPage")
		out      = flag.String("out", "out", "directory for trace artifacts")
	)
	flag.Parse()
	budget := time.Duration(*seconds) * time.Second
	var err error
	switch {
	case *workload != "":
		err = driverRun(*workload, *seed, budget, *trace == 1, *rounds, *out)
	case *repeat > 1:
		err = repeatRuns(*repeat, *seed, budget, *out)
	default:
		_, err = suiteRun(*seed, budget, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// driverRun is one run of the driver's contract: one workload, one
// kind of metrics, and as the last line of standard output one JSON
// object {"correct", "attempted", "failed", "metrics"}.
func driverRun(name string, seed int64, budget time.Duration, traced bool, rounds int, outDir string) error {
	w := workloadByName(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	res, err := runOne(w, fullSizes, seed, budget, rounds, traced, outDir)
	if err != nil {
		return err
	}
	specs := metricsFor(traced)
	printMetrics(name, traced, res)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]value{}}
	for _, m := range specs {
		v, ok := res.values[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s missing or not finite (%v)", name, m.Name, v)
		}
		line.Metrics[m.Name] = value{v, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return failures(name, res)
}

func failures(name string, res *result) error {
	if res.failed == 0 {
		return nil
	}
	return fmt.Errorf("%s: %d of %d oracle checks failed: %v", name, res.failed, res.attempted, res.failures)
}

// printMetrics prints every metric the run measured, by name, with its
// unit and its sample note, in table order. The layer metrics a traced
// run reports as 0 (off their focus workloads) are only in the JSON line.
func printMetrics(workload string, traced bool, res *result) {
	for _, m := range metricsFor(traced) {
		if v, ok := res.values[m.Name]; ok && (!traced || m.focusOn(workload)) {
			fmt.Printf("%-16s %-34s %16.4f %-10s %s\n", workload, m.Name, v, m.Unit, res.notes[m.Name])
		}
	}
	if _, ok := res.values["failed_share"]; !ok {
		fmt.Printf("%-16s %-34s %16.4f %-10s %d of %d checks\n", workload, "failed_share", res.failedShare(), "fraction", res.failed, res.attempted)
	}
}

// writeTrace checks the run's spans and writes them as a
// redotheory/trace/v1 artifact that cmd/redotrace reads.
func writeTrace(dir, workload string, tr *tracer) error {
	t := rtrace.New("bench -workload "+workload+" -trace 1", tr.finish())
	if err := t.Check(); err != nil {
		return fmt.Errorf("trace of %s is malformed: %w", workload, err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return t.WriteFile(filepath.Join(dir, "trace-"+workload+".json"))
}

// runOne runs one workload once. A traced run takes half the budget,
// writes its trace artifact, and reports 0 for every layer metric whose
// layer this workload's run never calls.
func runOne(w *workloadSpec, sz sizes, seed int64, budget time.Duration, rounds int, traced bool, outDir string) (*result, error) {
	e := &env{sz: sz, seed: seed, budget: budget, rounds: rounds, res: newResult()}
	if traced {
		e.tr, e.budget = newTracer(w.Name), budget/2
	}
	if err := w.run(e); err != nil {
		return e.res, fmt.Errorf("%s: %w", w.Name, err)
	}
	if !traced {
		return e.res, e.finishSetUp()
	}
	for _, m := range perLayer {
		if _, ok := e.res.values[m.Name]; !ok {
			e.res.set(m.Name, 0, "not on this workload's path")
		}
	}
	e.res.set("failed_share", e.res.failedShare(), fmt.Sprintf("%d of %d checks", e.res.failed, e.res.attempted))
	return e.res, writeTrace(outDir, w.Name, e.tr)
}

// suiteRun runs every workload, untraced then traced, prints every
// metric, and returns the values keyed "workload/metric".
func suiteRun(seed int64, budget time.Duration, outDir string) (map[string]float64, error) {
	all := map[string]float64{}
	var firstErr error
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			t0 := time.Now()
			res, err := runOne(w, fullSizes, seed, budget, 0, traced, outDir)
			if err != nil {
				return all, err
			}
			printMetrics(w.Name, traced, res)
			fmt.Printf("%-16s (%s run took %.1fs)\n", w.Name, map[bool]string{false: "untraced", true: "traced"}[traced], time.Since(t0).Seconds())
			for name, v := range res.values {
				all[w.Name+"/"+name] = v
			}
			if err := failures(w.Name, res); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	env := map[string]any{"gomaxprocs": runtime.GOMAXPROCS(0), "num_cpu": runtime.NumCPU(), "go": runtime.Version(),
		"seed": seed, "seconds": budget.Seconds(), "results": all}
	b, err := json.Marshal(env)
	if err != nil {
		return all, err
	}
	fmt.Println(string(b))
	return all, firstErr
}

// repeatRuns is the repeatability self-check: it runs the suite n
// times with one seed and fails if an end-to-end metric's spread
// exceeds its bound or an exact count differs between runs.
func repeatRuns(n int, seed int64, budget time.Duration, outDir string) error {
	runs := make([]map[string]float64, n)
	for i := range runs {
		fmt.Printf("--- suite run %d of %d ---\n", i+1, n)
		var err error
		if runs[i], err = suiteRun(seed, budget, outDir); err != nil {
			return err
		}
	}
	bad := 0
	fmt.Printf("--- spread over %d runs: (max-min)/median ---\n", n)
	for _, traced := range []bool{false, true} {
		for _, m := range metricsFor(traced) {
			for _, w := range allWorkloads {
				if traced && !m.focusOn(w) {
					continue // a layer metric is 0 off its focus workloads
				}
				vals := make([]float64, n)
				for i := range runs {
					vals[i] = runs[i][w+"/"+m.Name]
				}
				sort.Float64s(vals)
				spread := 0.0
				if med := medianFloat(vals); med != 0 {
					spread = (vals[n-1] - vals[0]) / med
				}
				verdict := ""
				switch {
				case m.Exact && spread != 0:
					verdict = "FAIL: exact count differs"
				case !m.Exact && m.Bound > 0 && spread > m.Bound:
					verdict = fmt.Sprintf("FAIL: beyond bound %.2f", m.Bound)
				}
				if verdict != "" {
					bad++
				}
				fmt.Printf("%-16s %-34s %8.4f  %v %s\n", w, m.Name, spread, vals, verdict)
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metrics did not repeat", bad)
	}
	return nil
}
