// Package obs is the recovery telemetry layer: typed atomic metrics, a
// structured recovery event stream, and snapshot/export plumbing, with
// zero dependencies beyond the standard library and negligible cost when
// disabled.
//
// The unit of instrumentation is the Recorder. A nil *Recorder is the
// disabled state: every method is nil-safe and free, so instrumented
// code threads one recorder pointer through unconditionally and never
// branches on "is telemetry on". A non-nil Recorder collects three kinds
// of data:
//
//   - Metrics: counters, gauges, and power-of-two histograms (durations
//     in nanoseconds, plain integer samples). All metric updates are
//     single atomic operations after first touch, so a Recorder may be
//     shared freely across goroutines — the parallel replay workers and
//     concurrent campaign cells increment the same recorder race-free.
//
//   - Events: when a Sink is attached (SetSink), the recorder emits a
//     globally-ordered structured event stream — phase span begin/end,
//     per-record redo-test verdicts (admit/skip with the reason), cache
//     flush/steal installs, WAL forces, and degraded-recovery integrity
//     detections. With no sink attached, emission is a nil check.
//
//   - Spans: StartSpan/End wrap a recovery phase; End both observes the
//     duration into the phase's histogram and emits the span events.
//     The phases mirror the paper's abstract recover procedure (see
//     DESIGN.md §9): scan, analysis, decide, partition, replay, merge.
//
// Snapshot() freezes everything into a JSON-ready, mergeable value;
// Report (report.go) is the on-disk schema cmd/redostats renders and
// validates; ServeDebug (debug.go) exposes live snapshots, expvar, and
// net/http/pprof for profiling long campaigns in flight.
package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Phase names a stage of the recovery procedure. The six stages cover
// both engines: sequential recovery (Figure 6) runs scan/analysis/replay
// interleaved; the parallel engine runs decide (containing scan and
// analysis) beside a pipelined replay, then partition, a pooled replay
// of the tail, and merge.
type Phase string

const (
	// PhaseScan is log-record iteration plus the redo test itself.
	PhaseScan Phase = "scan"
	// PhaseAnalysis is time inside the method's analysis function.
	PhaseAnalysis Phase = "analysis"
	// PhaseDecide is the whole decision phase (scan + analysis, no
	// application) — core.DecideRedo.
	PhaseDecide Phase = "decide"
	// PhasePartition is interference-closure planning over the redo set.
	PhasePartition Phase = "partition"
	// PhaseReplay is operation re-application: sequential replay, the
	// parallel worker pool, or degraded recovery's conservative replay.
	PhaseReplay Phase = "replay"
	// PhaseMerge is folding the workers' disjoint overlays into the state.
	PhaseMerge Phase = "merge"
	// PhaseRecover is the umbrella span around a whole sequential
	// recovery (its scan/analysis/replay children nest inside it).
	PhaseRecover Phase = "recover"
	// PhaseComponent is one worker's share of the parallel engine's
	// replay: the whole interference components it owns, replayed in one
	// log-order sweep — the unit straggler analysis attributes replay
	// time to. Its begin event carries Comp ("w<k>")/Worker/Size/WriteN.
	PhaseComponent Phase = "component"
	// PhaseSupervise is the umbrella span around a whole supervised
	// recovery (attempts and their nested engine spans inside it).
	PhaseSupervise Phase = "supervise"
	// PhaseAttempt is one supervised-recovery attempt (Comp carries
	// "attempt<n>/<rung>").
	PhaseAttempt Phase = "attempt"
	// PhaseInstall is one fuzzy-checkpointed install batch inside an
	// installing attempt.
	PhaseInstall Phase = "install"
	// PhaseLazyRedo is one interference component recovered on demand by
	// the serve engine — the unit of instant-restart work a client touch
	// triggers (the background sweep replays record by record, under no
	// span). Its begin event carries Comp/Size/WriteN like
	// PhaseComponent; Size counts the records the touch replayed.
	PhaseLazyRedo Phase = "lazyredo"
	// PhaseShardRecover is one whole sharded recovery (internal/shard):
	// cut computation plus every shard's per-shard recovery.
	PhaseShardRecover Phase = "shardrecover"
	// PhaseCut is the certified-cut computation over the shards' stable
	// logs (transaction-table scan plus frontier retreat).
	PhaseCut Phase = "cut"
	// PhaseShardReplay is one shard's recovery inside a sharded
	// recovery, annotated with the shard index as its component.
	PhaseShardReplay Phase = "shardreplay"
)

// Metric names recorded by the instrumented packages. Durations land
// under "phase.<name>" via Span; everything here is a counter unless
// noted.
const (
	// Decision-phase counters (core.DecideRedo / core.Recover).
	MRedoExamined     = "redo.examined"       // records the redo test saw
	MRedoAdmitted     = "redo.admitted"       // redo test said replay
	MRedoSkipped      = "redo.skipped"        // redo test said installed
	MRedoCheckpointed = "redo.checkpointed"   // skipped via checkpoint set
	MReplayRecords    = "replay.records"      // operations actually re-applied
	MReplayComponents = "replay.components"   // components replayed
	MPartitionPlans   = "partition.plans"     // partition plans built
	MPartitionWidth   = "partition.width"     // sample histogram: records per component
	GPartitionLargest = "partition.largest"   // gauge: widest component of the last plan
	MDegradedRuns     = "degraded.replays"    // conservative full-replay passes
	MDetections       = "degraded.detections" // integrity detections observed

	// Supervised-recovery counters (internal/supervise).
	MSupAttempts    = "supervise.attempts"             // recovery attempts started
	MSupCrashes     = "supervise.nested_crashes"       // injected crashes survived mid-recovery
	MSupTransient   = "supervise.transient_faults"     // attempts aborted by a transient install fault
	MSupCheckpoints = "supervise.progress_checkpoints" // fuzzy progress checkpoints appended
	MSupEscalations = "supervise.escalations"          // degradation-ladder rung changes
	MSupConverged   = "supervise.converged"            // supervised recoveries that reached fixed point
	MSupInstalls    = "supervise.installs"             // operations installed across all attempts
	MSupBackoff     = "supervise.backoff"              // duration histogram: backoff slept between attempts
	GSupProgress    = "supervise.progress"             // gauge: installed-prefix size after the last attempt

	// Runtime counters (the DB implementations and substrates).
	MDBExec        = "db.exec"             // operations executed
	MDBCheckpoints = "db.checkpoints"      // checkpoints taken
	MCacheFlushes  = "cache.flushes"       // page installs
	MCacheSteals   = "cache.steals"        // older-version installs (multi-version cache)
	MCacheGroups   = "cache.group_flushes" // atomic multi-page group installs
	MWALAppends    = "wal.appends"         // log records appended
	MWALBytes      = "wal.bytes"           // simulated log bytes appended
	MWALForces     = "wal.forces"          // log forces that did work

	// Instant-restart serve counters (internal/serve).
	MServeReads    = "serve.reads"                // client reads served
	MServeWrites   = "serve.writes"               // post-crash client writes committed
	MServeLazy     = "serve.lazy_redo"            // components finished on demand by a touch
	MServeSwept    = "serve.swept"                // components finished by the background sweeper or Drain
	MServeGateWait = "serve.gate_wait"            // duration histogram: time a touch spent blocked on the admission gate
	MServeTTFR     = "serve.ttfr"                 // duration histogram: time from engine start to the first served read
	GServePages    = "serve.pages_recovered"      // gauge: pages (written variables) recovered so far
	GServeComps    = "serve.components_recovered" // gauge: components recovered so far

	// Sharded-database counters (internal/shard).
	MShardCrossTxns   = "shard.cross_txns"          // cross-shard transactions executed
	MShardCertify     = "shard.certifications"      // certification passes run
	MShardGateBlocked = "shard.gate_blocked"        // installs/checkpoints refused by the certification gate
	MShardCutRetreats = "shard.cut_retreats"        // frontier-retreat steps during cut computation
	MShardCutDropped  = "shard.cut_dropped_txns"    // transactions outside the certified cut
	MShardCutRecords  = "shard.cut_dropped_records" // stable records excluded by the cut
	GShardCutLag      = "shard.cut_lag_records"     // gauge: records between stable frontiers and the last cut, summed over shards
)

// Recorder collects metrics and (optionally) emits events. The zero
// value is NOT usable; call New. A nil *Recorder is the disabled
// recorder: every method no-ops.
type Recorder struct {
	counters  sync.Map // string -> *Counter
	gauges    sync.Map // string -> *Gauge
	durations sync.Map // string -> *Hist (nanoseconds)
	samples   sync.Map // string -> *Hist (unitless)

	// sinkMu serializes event emission and sequence assignment so the
	// stream carries a single global order even under concurrent emitters.
	sinkMu sync.Mutex
	sink   Sink
	seq    uint64
	// hasSink mirrors sink != nil for a lock-free fast path: with no sink
	// attached, Emit is one atomic load, and callers can skip building
	// event payloads entirely (Sinking).
	hasSink atomic.Bool

	// spanIDs allocates causal-span ids; traceIDs numbers the traces the
	// recorder has begun. Both only advance while a sink is attached, so
	// the metrics-only configuration never touches them.
	spanIDs  atomic.Uint64
	traceIDs atomic.Uint64
	// spanMu guards ambient, the coordinator-side stack of open span ids
	// that gives StartSpan its implicit parent. Worker spans use
	// StartSpanWith with an explicit parent and never touch it.
	spanMu  sync.Mutex
	ambient []uint64
}

// epoch anchors Event.TS: all recorders stamp nanoseconds since this
// process-wide instant, so timestamps from every recorder in a run are
// directly comparable.
var epoch = time.Now()

// New returns an empty enabled recorder.
func New() *Recorder { return &Recorder{} }

// SetSink attaches the event sink. Call before instrumented work starts;
// a nil sink disables events (metrics keep flowing). Attaching a sink is
// a trace boundary: the ambient span stack is reset, so span ids a
// panicking recovery failed to close under a previous sink cannot leak
// into the new stream's parentage.
func (r *Recorder) SetSink(s Sink) {
	if r == nil {
		return
	}
	r.sinkMu.Lock()
	r.sink = s
	r.hasSink.Store(s != nil)
	r.sinkMu.Unlock()
	r.spanMu.Lock()
	r.ambient = nil
	r.spanMu.Unlock()
}

// Sink returns the attached event sink (nil when none).
func (r *Recorder) Sink() Sink {
	if r == nil {
		return nil
	}
	r.sinkMu.Lock()
	defer r.sinkMu.Unlock()
	return r.sink
}

// Sinking reports whether an event sink is attached. Hot paths check it
// before building event payloads that cost something to construct (an
// operation rendered to a string), so the metrics-only configuration
// pays for counters and clocks, never for formatting.
func (r *Recorder) Sinking() bool {
	return r != nil && r.hasSink.Load()
}

// counter returns the named counter, creating it on first touch.
func (r *Recorder) counter(name string) *Counter {
	if c, ok := r.counters.Load(name); ok {
		return c.(*Counter)
	}
	c, _ := r.counters.LoadOrStore(name, new(Counter))
	return c.(*Counter)
}

// gauge returns the named gauge, creating it on first touch.
func (r *Recorder) gauge(name string) *Gauge {
	if g, ok := r.gauges.Load(name); ok {
		return g.(*Gauge)
	}
	g, _ := r.gauges.LoadOrStore(name, new(Gauge))
	return g.(*Gauge)
}

// duration returns the named duration histogram.
func (r *Recorder) duration(name string) *Hist {
	if h, ok := r.durations.Load(name); ok {
		return h.(*Hist)
	}
	h, _ := r.durations.LoadOrStore(name, newHist())
	return h.(*Hist)
}

// sample returns the named sample histogram.
func (r *Recorder) sample(name string) *Hist {
	if h, ok := r.samples.Load(name); ok {
		return h.(*Hist)
	}
	h, _ := r.samples.LoadOrStore(name, newHist())
	return h.(*Hist)
}

// Inc adds 1 to the named counter.
func (r *Recorder) Inc(name string) { r.Add(name, 1) }

// Touch materializes the named counters at their current value (zero if
// new), so snapshots report them even when nothing ever incremented —
// a run that skipped no records still shows redo.skipped = 0.
func (r *Recorder) Touch(names ...string) {
	if r == nil {
		return
	}
	for _, name := range names {
		r.counter(name)
	}
}

// Add adds d to the named counter.
func (r *Recorder) Add(name string, d int64) {
	if r == nil {
		return
	}
	r.counter(name).Add(d)
}

// CounterHandle resolves the named counter once for repeated hot-path
// updates, skipping the per-call registry lookup. A nil recorder yields
// a nil handle, whose Add is a no-op.
func (r *Recorder) CounterHandle(name string) *Counter {
	if r == nil {
		return nil
	}
	return r.counter(name)
}

// SetGauge sets the named gauge.
func (r *Recorder) SetGauge(name string, v int64) {
	if r == nil {
		return
	}
	r.gauge(name).Set(v)
}

// ObserveDuration records d into the named duration histogram.
func (r *Recorder) ObserveDuration(name string, d time.Duration) {
	if r == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	r.duration(name).Observe(int64(d))
}

// Observe records v into the named sample histogram.
func (r *Recorder) Observe(name string, v int64) {
	if r == nil {
		return
	}
	r.sample(name).Observe(v)
}

// Emit sends an event to the attached sink, stamping its sequence
// number and trace timestamp. Without a sink it is a nil check.
func (r *Recorder) Emit(e Event) {
	if r == nil || !r.hasSink.Load() {
		return
	}
	r.sinkMu.Lock()
	if r.sink != nil {
		r.seq++
		e.Seq = r.seq
		if e.TS == 0 {
			e.TS = int64(time.Since(epoch))
		}
		r.sink.Emit(e)
	}
	r.sinkMu.Unlock()
}

// EmitBatch emits a slice of events under one acquisition of the
// emission lock, assigning consecutive sequence numbers and one shared
// timestamp (batch members with a preset TS keep it). The replay hot
// loop batches each record's micro events — admit/skip verdicts and the
// id-less per-record span pairs, whose timestamps no consumer reads —
// so the per-event lock and clock cost the tracing overhead gate meters
// is paid once per record instead of once per event. Events are
// stamped in place; the caller may reuse the backing array afterwards.
func (r *Recorder) EmitBatch(events []Event) {
	if r == nil || len(events) == 0 || !r.hasSink.Load() {
		return
	}
	r.sinkMu.Lock()
	if r.sink != nil {
		ts := int64(time.Since(epoch))
		for i := range events {
			r.seq++
			events[i].Seq = r.seq
			if events[i].TS == 0 {
				events[i].TS = ts
			}
			r.sink.Emit(events[i])
		}
	}
	r.sinkMu.Unlock()
}

// Span is an in-flight phase measurement. A nil *Span (from a nil
// recorder) ends harmlessly.
type Span struct {
	r       *Recorder
	phase   Phase
	start   time.Time
	id      uint64
	parent  uint64
	ambient bool // id was pushed on the recorder's ambient stack
}

// SpanID returns the span's causal id (0 when the span was started
// without a sink attached, or on a nil span).
func (s *Span) SpanID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// SpanInfo carries the attribution attached to a span's begin event:
// which component/attempt/batch it is, which worker ran it, and how big
// it was. The zero value attaches nothing.
type SpanInfo struct {
	Comp   string // worker/component/attempt/batch label ("w2", "c3", "attempt0/parallel", …)
	Worker int    // 1-based replay worker, 0 for coordinator spans
	Size   int    // records the worker or component replayed / installs in the batch
	Writes int    // distinct variables those records write
}

// StartSpan begins a phase span: it emits the span-begin event and
// starts the clock. When a sink is attached the span gets a fresh id,
// parents under the recorder's innermost ambient span, and becomes the
// ambient parent for spans started before its End — callers on one
// logical thread of control get a causal tree with no explicit
// plumbing. Concurrent workers must use StartSpanWith instead.
func (r *Recorder) StartSpan(p Phase) *Span {
	return r.StartSpanInfo(p, SpanInfo{})
}

// StartSpanInfo is StartSpan with attribution on the begin event.
func (r *Recorder) StartSpanInfo(p Phase, info SpanInfo) *Span {
	if r == nil {
		return nil
	}
	s := &Span{r: r, phase: p}
	if r.hasSink.Load() {
		s.id = r.spanIDs.Add(1)
		s.ambient = true
		r.spanMu.Lock()
		if n := len(r.ambient); n > 0 {
			s.parent = r.ambient[n-1]
		}
		r.ambient = append(r.ambient, s.id)
		r.spanMu.Unlock()
		r.Emit(Event{Type: EvSpanBegin, Phase: p, Span: s.id, Parent: s.parent,
			Comp: info.Comp, Worker: info.Worker, Size: info.Size, WriteN: info.Writes})
	}
	s.start = time.Now()
	return s
}

// StartSpanWith begins a span under an explicit parent id, without
// touching the recorder's ambient stack — the concurrency-safe form for
// parallel replay workers, which all parent under the coordinator's
// replay span while it stays open.
func (r *Recorder) StartSpanWith(p Phase, parent uint64, info SpanInfo) *Span {
	if r == nil {
		return nil
	}
	s := &Span{r: r, phase: p, parent: parent}
	if r.hasSink.Load() {
		s.id = r.spanIDs.Add(1)
		r.Emit(Event{Type: EvSpanBegin, Phase: p, Span: s.id, Parent: parent,
			Comp: info.Comp, Worker: info.Worker, Size: info.Size, WriteN: info.Writes})
	}
	s.start = time.Now()
	return s
}

// StartRootSpan begins a recovery's root span. If no ambient span is
// open it first emits a trace-begin event with a fresh trace id — each
// top-level recovery starts its own trace, while recoveries nested
// inside a supervised attempt join the enclosing trace as subtrees.
func (r *Recorder) StartRootSpan(p Phase, detail string) *Span {
	if r == nil {
		return nil
	}
	if r.hasSink.Load() {
		r.spanMu.Lock()
		root := len(r.ambient) == 0
		r.spanMu.Unlock()
		if root {
			r.Emit(Event{Type: EvTraceBegin, Trace: fmt.Sprintf("t%d", r.traceIDs.Add(1)), Detail: detail})
		}
	}
	return r.StartSpanInfo(p, SpanInfo{})
}

// End closes the span: it observes the elapsed time into the phase's
// duration histogram ("phase.<name>"), emits the span-end event, and
// returns the elapsed time.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	d := time.Since(s.start)
	s.r.ObserveDuration("phase."+string(s.phase), d)
	if s.ambient {
		s.r.spanMu.Lock()
		for i := len(s.r.ambient) - 1; i >= 0; i-- {
			if s.r.ambient[i] == s.id {
				s.r.ambient = append(s.r.ambient[:i], s.r.ambient[i+1:]...)
				break
			}
		}
		s.r.spanMu.Unlock()
	}
	if s.id != 0 {
		s.r.Emit(Event{Type: EvSpanEnd, Phase: s.phase, Dur: d, Span: s.id})
	} else {
		s.r.Emit(Event{Type: EvSpanEnd, Phase: s.phase, Dur: d})
	}
	return d
}

// Counter is a monotonically-increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d (no-op on a nil handle, so disabled
// recorders stay free in hot loops).
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic last-value-wins gauge.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }
