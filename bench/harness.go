package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"redotheory/internal/core"
	"redotheory/internal/obs"
)

// Run-length constants. Every timed path runs until both its wall budget
// and its minimum iteration count are spent, so a path that gets 100x
// faster still yields enough samples.
const (
	// maxProcs pins GOMAXPROCS to this box's nproc; client load never
	// uses more goroutines than this.
	maxProcs = 2
	clients  = 2

	defaultSeed    = 1
	defaultSeconds = 10
	// An untraced run sets up at least setupReps times and for at least
	// a twentieth of its budget, and reports the median as setup_s.
	setupReps = 3

	minRecoverIters = 5  // pairs of offline recoveries, every workload
	minPasses       = 3  // forward-exec
	minTrials       = 50 // instant-restart: 100 TTFR samples, 10 beyond p90
	minTracedTrials = 5
	minLayerRounds  = 1

	// spanEvery samples the per-operation spans of the traced forward
	// loops (Exec, FlushLog): one call in spanEvery carries a span, so
	// 200k operations do not become 400k trace events, and the trace
	// buffer stays small next to the fixture (it is live heap, and live
	// heap decides when the collector runs inside a timed recovery).
	spanEvery = 16
)

// sizes are the input sizes of every workload. Log sizes never shrink
// with the time budget, so numbers stay comparable across budgets.
type sizes struct {
	coldOps, coldPages           int // restart-cold and instant-restart
	dptOps, dptPages             int
	fwdOps, fwdPages             int
	shards, shardPages, shardOps int // shardPages is per shard
}

var fullSizes = sizes{100000, 4096, 5000, 256, 200000, 1024, 4, 128, 10000}

// env is one run of one workload.
type env struct {
	sz     sizes
	seed   int64
	budget time.Duration
	// rounds > 0 swaps restart-cold's HotPage for HeavyHotPage(rounds):
	// the hand-run H1 parameter, never part of a default run.
	rounds int
	// tr is nil on an untraced run; every tracer method is nil-safe.
	tr  *tracer
	res *result

	// setups and forwards are the set-ups timed so far; again times one
	// more and discards its fixture.
	setups   []time.Duration
	forwards []forwardRun
	again    func() error
}

func (e *env) traced() bool { return e.tr != nil }

// result collects a run's metrics and oracle verdicts.
type result struct {
	values    map[string]float64
	notes     map[string]string
	attempted int
	failed    int
	failures  []string
}

func newResult() *result {
	return &result{values: map[string]float64{}, notes: map[string]string{}}
}

func (r *result) set(name string, v float64, note string) {
	r.values[name] = v
	r.notes[name] = note
}

// check records one oracle verdict. A failed check counts in
// failed_share and makes the command exit non-zero.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if ok {
		return
	}
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *result) failedShare() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

// cold makes the next recovery a restart's: a real restart is a new
// process and never has a warm view or graph cache. Call it outside the
// timed region.
func cold() {
	core.DefaultViews = core.NewViewCache(128)
	core.DefaultGraphs = core.NewGraphCache(128)
	runtime.GC()
}

// loop calls fn until it has run minIter times and the budget is spent.
func loop(budget time.Duration, minIter int, fn func() error) error {
	start := time.Now()
	for i := 0; i < minIter || time.Since(start) < budget; i++ {
		if err := fn(); err != nil {
			return err
		}
	}
	return nil
}

// forwardRun is what one forward execution to the crash cost.
type forwardRun struct {
	ops, logBytes int
	dur           time.Duration
}

// setUp builds the run's fixture and times the build. The fixture is
// the first build of the process; the repeat set-ups that setup_s wants
// run after the timed paths (finishSetUp) and their fixtures are
// dropped, so the untraced run and the traced run, which sets up once,
// time the same heap.
func setUp[T any](e *env, build func() (T, forwardRun, error)) (T, error) {
	var fx T
	timed := func(keep bool) error {
		t0 := time.Now()
		f, fwd, err := build()
		e.setups = append(e.setups, time.Since(t0))
		e.forwards = append(e.forwards, fwd)
		if keep {
			fx = f
		}
		return err
	}
	e.again = func() error { return timed(false) }
	sp := e.tr.span("bench.setup", 1)
	err := timed(true)
	sp.end()
	return fx, err
}

// finishSetUp repeats the set-up after an untraced run's timed paths
// and records setup_s and the forward half's metrics.
func (e *env) finishSetUp() error {
	if err := loop(e.budget/20, setupReps-1, e.again); err != nil {
		return err
	}
	e.res.set("setup_s", medianDur(e.setups).Seconds(), samplesNote(e.setups))
	e.setForward(e.forwards)
	return nil
}

// setForward records the forward half's two metrics from the run's
// forward executions.
func (e *env) setForward(fwd []forwardRun) {
	durs := make([]time.Duration, len(fwd))
	for i, f := range fwd {
		durs[i] = f.dur
	}
	last := fwd[len(fwd)-1]
	if last.ops == 0 {
		return
	}
	e.res.set("exec_ops_per_s", perSecond(last.ops, medianDur(durs)), samplesNote(durs)+fmt.Sprintf(" forward runs of %d ops, background work included", last.ops))
	e.res.set("log_bytes_per_op", float64(last.logBytes)/float64(last.ops), fmt.Sprintf("%d log bytes", last.logBytes))
}

func sortedDurs(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func medianDur(d []time.Duration) time.Duration { return pctDur(d, 50) }

// pctDur is the nearest-rank p-th percentile.
func pctDur(d []time.Duration, p float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := sortedDurs(d)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func meanFloat(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(max(len(xs), 1))
}

// samplesNote states the sample count, the median, and the highest
// percentile that still has at least ten samples beyond it.
func samplesNote(d []time.Duration) string {
	n := len(d)
	note := fmt.Sprintf("n=%d p50=%s", n, short(medianDur(d)))
	for _, p := range []float64{99.9, 99, 90} {
		if float64(n)*(100-p)/100 >= 10 {
			return note + fmt.Sprintf(" p%g=%s", p, short(pctDur(d, p)))
		}
	}
	return note
}

// short prints a duration with three or four significant digits.
func short(d time.Duration) time.Duration {
	for unit := time.Second; unit > time.Nanosecond; unit /= 1000 {
		if d >= unit {
			return d.Round(unit / 1000)
		}
	}
	return d
}

// perSecond is units of work per second at the given duration.
func perSecond(units int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(units) / d.Seconds()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(ns float64) float64      { return ns / 1e3 }

// tracer records the traced run's spans: one obs span per call into a
// layer's exported function, emitted through an obs.Recorder into a
// MemorySink and written out as a redotheory/trace/v1 artifact when the
// run ends. Layer spans are leaves — the harness never opens a span
// under one — so a layer's span is its self time.
type tracer struct {
	rec  *obs.Recorder
	sink *obs.MemorySink
	root *obs.Span
	tot  map[string]*spanTotal
}

type spanTotal struct {
	calls, size int
	sum         time.Duration
	perUnit     []float64 // ns per unit of size, one entry per call
}

func newTracer(detail string) *tracer {
	t := &tracer{rec: obs.New(), sink: &obs.MemorySink{}, tot: map[string]*spanTotal{}}
	t.rec.SetSink(t.sink)
	t.root = t.rec.StartRootSpan(obs.Phase("bench.run"), detail)
	return t
}

type span struct {
	t    *tracer
	name string
	size int
	s    *obs.Span
}

// span opens a span named after the call it wraps ("wal.StableLog").
// size is the units of work the call covers (records, operations); the
// per-unit costs divide by it.
func (t *tracer) span(name string, size int) span {
	if t == nil {
		return span{}
	}
	if size < 1 {
		size = 1
	}
	return span{t: t, name: name, size: size,
		s: t.rec.StartSpanInfo(obs.Phase(name), obs.SpanInfo{Size: size})}
}

func (s span) end() {
	if s.t == nil {
		return
	}
	d := s.s.End()
	tot := s.t.tot[s.name]
	if tot == nil {
		tot = &spanTotal{}
		s.t.tot[s.name] = tot
	}
	tot.calls++
	tot.size += s.size
	tot.sum += d
	tot.perUnit = append(tot.perUnit, float64(d)/float64(s.size))
}

// finish closes the root span and returns the event stream.
func (t *tracer) finish() []obs.Event {
	t.root.End()
	return t.sink.Events()
}

// mean is the span's nanoseconds per unit over all calls (total time ÷
// total size): the right summary for sampled per-operation spans.
func (t *tracer) mean(name string) float64 {
	tot := t.tot[name]
	if tot == nil || tot.size == 0 {
		return 0
	}
	return float64(tot.sum) / float64(tot.size)
}

// median is the median call's nanoseconds per unit: the right summary
// for probes called a handful of times.
func (t *tracer) median(name string) float64 {
	tot := t.tot[name]
	if tot == nil {
		return 0
	}
	return medianFloat(tot.perUnit)
}

// callsNote states how many calls the span's summary rests on.
func (t *tracer) callsNote(name string) string {
	if tot := t.tot[name]; tot != nil {
		return fmt.Sprintf("n=%d", tot.calls)
	}
	return "n=0"
}
