// Package serve is the instant-restart engine: it accepts reads and
// writes immediately after a crash and performs redo lazily, per page,
// on first touch — the single-pass REDO-only instant-recovery design of
// Sauer & Härder, built on the paper's state-blind decision phase.
//
// On startup the engine runs only the cheap decision phase
// (core.DecideAndView): the same analysis phase, scan, and redo-test
// invocations as offline recovery, but applying nothing. The admitted
// record set is then partitioned into interference components
// (internal/partition), and two indexes make any page independently
// recoverable:
//
//   - the writer index maps each page to the unique component that
//     redoes it (components write disjoint pages), so a touch knows
//     exactly which pending work gates it;
//   - the reader index maps each stable page to the components whose
//     recomputations read it, so a post-crash overwrite is held until
//     every such component has replayed — the careful-write-order
//     constraint of Section 6.4, transplanted to serve time.
//
// The admission gate blocks only touches to not-yet-recovered pages: a
// read of page p lazily replays p's component (in LSN order, against
// the dense arena, exactly as one worker of the parallel engine would)
// and proceeds; a write additionally drains p's reader components, then
// appends to the WAL and installs. Touch-order independence is the
// linearization argument of DESIGN.md §8 one more time: components are
// conflict-closed, so any interleaving of component replays that keeps
// each component in LSN order — demand order, sweep order, or both at
// once — reaches the same state as sequential Recover (DESIGN.md §14
// gives the soundness argument). An optional background sweeper walks
// the admitted records once, in log order, so full recovery still
// completes while the hot set is being served; each component keeps a
// cursor, so the sweep may start a component and a touch finish it.
//
// Availability is the point: time-to-first-successful-read is the
// latency of recovering one component, not the whole log; cmd/redoserve
// -bench measures exactly that gap.
package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"redotheory/internal/core"
	"redotheory/internal/dense"
	"redotheory/internal/method"
	"redotheory/internal/model"
	"redotheory/internal/obs"
	"redotheory/internal/partition"
	"redotheory/internal/wal"
)

// Options configures an Engine.
type Options struct {
	// Recorder receives serve counters, gate-wait and time-to-first-read
	// histograms, lazy-redo spans, and the recovery-progress gauges. Nil
	// disables telemetry.
	Recorder *obs.Recorder
	// WAL is the log manager post-crash writes append to. Pass the
	// crashed DB's own manager (db.WAL()) to continue the existing log —
	// a later crash then recovers the new writes like any others — or
	// nil for a fresh private manager (a new log epoch), which leaves
	// the crashed DB untouched; the fuzzer's oracle leg relies on that.
	WAL *wal.Manager
	// Sweeper starts the background sweeper, which walks the admitted
	// records in log order so full recovery completes even if clients
	// never touch the cold tail.
	Sweeper bool
	// SweepDelay holds the sweeper back after startup, leaving the first
	// burst of client touches the whole machine — availability over
	// restore time.
	SweepDelay time.Duration
}

// compState tracks one component's lazy-recovery lifecycle.
type compState struct {
	// mu guards cursor: whoever replays the component's records — the
	// sweep, one record at a time, or a touch, the whole remainder —
	// holds it, and every concurrent touch of the component blocks here.
	// That blocking is the admission gate.
	mu sync.Mutex
	// cursor is the position in the component's Idx of its next record
	// to replay: the records before it have replayed, in LSN order,
	// exactly once. n is the component's record count, kept beside the
	// cursor so a sweep step touches one line of memory per component.
	cursor, n int
	// done flips true exactly once, after the last record's replay (or a
	// failure) is installed. The atomic read is the gate's lock-free fast
	// path.
	done atomic.Bool
	// err is the sticky replay failure and errLSN its record's LSN, both
	// set before done flips.
	err    error
	errLSN core.LSN
	// redone counts completions — the exactly-once audit the race tests
	// assert on.
	redone atomic.Int64
}

// Engine serves reads and writes during recovery.
type Engine struct {
	rec      *obs.Recorder
	lv       *core.LogView
	decision *core.RedoDecision
	plan     *partition.Plan
	ds       *dense.State
	// writer[id] is the component redoing variable id (-1: none);
	// readers[id] lists the components whose replay reads variable id.
	writer  []int32
	readers [][]int32

	// mu guards the map-backed serving state, WAL appends, and the
	// commit order. The dense arena is covered for client writes and
	// presence-bit marking; component replays write their disjoint
	// arena slots outside it, exactly like the parallel engine.
	mu      sync.RWMutex
	state   *model.State
	wal     *wal.Manager
	commits []model.OpID

	comps []compState

	recovered      atomic.Int64
	pagesRecovered atomic.Int64
	reads, writes  atomic.Int64
	lazy, swept    atomic.Int64

	start     time.Time
	firstRead atomic.Int64 // ns from start to the first served read
	fullyAt   atomic.Int64 // ns from start to the last component's recovery

	done     chan struct{} // closed when every component has recovered
	doneOnce sync.Once

	stop        chan struct{}
	stopOnce    sync.Once
	sweeperDone chan struct{}
}

// New builds an engine over a crashed DB's survivors and starts serving
// immediately. Only the decision phase runs here — no record is
// replayed until a touch (or the sweeper) demands it. The DB itself is
// not modified: the engine works on the fresh StableState/StableLog
// projections, like every other recovery entry point.
func New(db method.DB, opts Options) (*Engine, error) {
	rec := opts.Recorder
	state := db.StableState()
	log := db.StableLog()
	decision, lv := core.DecideAndView(rec, state, log, db.Checkpointed(), db.RedoTest(), db.Analyze())
	ps := rec.StartSpan(obs.PhasePartition)
	plan := partition.FromViews(lv.Views, decision.ReplayIdx, lv.In.Len())
	ps.End()

	wm := opts.WAL
	if wm == nil {
		wm = wal.NewManager()
		wm.SetRecorder(rec)
	}
	e := &Engine{
		rec:         rec,
		lv:          lv,
		decision:    decision,
		plan:        plan,
		ds:          dense.FromState(lv.In, state),
		writer:      plan.WriterIndex(lv.In.Len()),
		readers:     plan.ReaderIndex(lv.Views, lv.In.Len()),
		state:       state,
		wal:         wm,
		comps:       make([]compState, len(plan.Components)),
		start:       time.Now(),
		done:        make(chan struct{}),
		stop:        make(chan struct{}),
		sweeperDone: make(chan struct{}),
	}
	rec.SetGauge(obs.GServeComps, 0)
	rec.SetGauge(obs.GServePages, 0)
	for ci, c := range plan.Components {
		e.comps[ci].n = len(c.Idx)
	}
	if len(plan.Components) == 0 {
		e.doneOnce.Do(func() { close(e.done) })
	}
	if opts.Sweeper {
		go e.sweep(opts.SweepDelay)
	} else {
		close(e.sweeperDone)
	}
	return e, nil
}

// Read returns the current served value of page x, lazily recovering
// the component that redoes x first. The returned value is exactly what
// a read after full offline recovery (plus any already-committed
// post-crash writes) would observe — serving early never serves stale.
func (e *Engine) Read(x model.Var) (model.Value, error) {
	if err := e.gateRead(x); err != nil {
		return "", err
	}
	e.mu.RLock()
	v, ok := e.ds.Get(x)
	if !ok {
		v = e.state.Get(x)
	}
	e.mu.RUnlock()
	e.reads.Add(1)
	e.rec.Inc(obs.MServeReads)
	if e.firstRead.Load() == 0 {
		d := time.Since(e.start)
		if d <= 0 {
			d = 1
		}
		if e.firstRead.CompareAndSwap(0, int64(d)) {
			e.rec.ObserveDuration(obs.MServeTTFR, d)
		}
	}
	return v, nil
}

// Exec commits a new post-crash operation through the admission gate:
// it lazily recovers every component that redoes a variable the
// operation touches — plus, for written variables, every component
// whose replay reads them (careful write order: a recomputation must
// never observe a post-crash value) — then computes the operation
// against the served state, appends it to the WAL, forces the log, and
// installs the writes. Operations must carry fresh ids; commit order is
// the serialization order the equivalence oracle replays against.
func (e *Engine) Exec(op *model.Op) error {
	for _, x := range op.Reads() {
		if err := e.gateRead(x); err != nil {
			return err
		}
	}
	for _, x := range op.Writes() {
		if err := e.gateWrite(x); err != nil {
			return err
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.wal.Log().RecordOf(op.ID()) != nil {
		return fmt.Errorf("serve: operation id %d is already logged", op.ID())
	}
	out, err := op.ApplyFrom(e.state.Get)
	if err != nil {
		return fmt.Errorf("serve: executing %s: %w", op, err)
	}
	// Post-crash records are sized exactly as the methods'
	// normal-operation logging sizes them.
	e.wal.Append(op, method.RecordSize(op, out))
	// The WAL rule at serve time: the record is stable before any client
	// can observe the write.
	e.wal.Flush()
	for j, x := range op.Writes() {
		e.state.Set(x, out[j])
		if id, ok := e.lv.In.Lookup(x); ok {
			e.ds.Set(id, out[j])
		}
	}
	e.commits = append(e.commits, op.ID())
	e.writes.Add(1)
	e.rec.Inc(obs.MServeWrites)
	return nil
}

// gateRead admits a read of x: the unique component redoing x (if any)
// must have replayed.
func (e *Engine) gateRead(x model.Var) error {
	id, ok := e.lv.In.Lookup(x)
	if !ok {
		return nil // never logged: stable by construction
	}
	if ci := e.writer[id]; ci >= 0 {
		return e.ensure(int(ci))
	}
	return nil
}

// gateWrite admits a write of x: x's own redo component plus every
// component whose replay reads x must have replayed first.
func (e *Engine) gateWrite(x model.Var) error {
	id, ok := e.lv.In.Lookup(x)
	if !ok {
		return nil
	}
	if ci := e.writer[id]; ci >= 0 {
		if err := e.ensure(int(ci)); err != nil {
			return err
		}
	}
	for _, ci := range e.readers[id] {
		if err := e.ensure(int(ci)); err != nil {
			return err
		}
	}
	return nil
}

// ensure is a touch's gate: it replays what is left of component ci
// (its records from the cursor on — the sweep may already have replayed
// a prefix) and returns the component's sticky outcome. Concurrent
// callers for the same component block on the component mutex while the
// winner replays, and the sweep holds it for at most one record; that
// blocking, measured from the fast-path miss to completion, is the gate
// wait the MServeGateWait histogram reports. Callers never hold one
// component's mutex while acquiring another's, so touches and the
// sweeper cannot deadlock however they interleave.
func (e *Engine) ensure(ci int) error {
	cs := &e.comps[ci]
	if cs.done.Load() {
		return cs.err
	}
	t0 := time.Now()
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.done.Load() {
		// Lost the race: a concurrent touch (or the sweep) finished the
		// component while this caller waited.
		e.rec.ObserveDuration(obs.MServeGateWait, time.Since(t0))
		return cs.err
	}
	c := e.plan.Components[ci]
	var span *obs.Span
	if e.rec.Sinking() {
		span = e.rec.StartSpanWith(obs.PhaseLazyRedo, 0, obs.SpanInfo{
			Comp:   fmt.Sprintf("c%d", ci),
			Size:   len(c.Idx) - cs.cursor,
			Writes: len(c.Writes),
		})
	}
	// One worker of the parallel engine, run on demand. The closure
	// invariant makes the reads safe: the component reads only variables
	// it writes itself or variables no component writes, and the
	// admission gate holds post-crash writes to the latter until every
	// reading component is done.
	var buf core.ReplayBuf
	failed, err := e.lv.Replay(e.ds, c.Idx[cs.cursor:], &buf)
	cs.cursor = len(c.Idx)
	span.End()
	e.finish(ci, failed, err, false)
	e.rec.ObserveDuration(obs.MServeGateWait, time.Since(t0))
	return cs.err
}

// step is the sweep's unit of work: under component Of[i]'s lock it
// replays admitted record i if that is the component's next record, and
// finishes the component after its last one. A touch therefore waits at
// most one record for the sweep. seen is the calling walk's count of
// records passed per component: every walk of the admitted records
// reaches a component's records in order, so the record at hand is the
// component's seen-th, and the cursor is at it or past it. Past means
// another walk (the sweeper beside Drain) or a touch already replayed
// it. Counting in the walk keeps the check off the component's schedule,
// which the log-order walk would otherwise visit at random.
func (e *Engine) step(i int, seen []int32, buf *core.ReplayBuf) {
	ci := e.plan.Of[i]
	k := int(seen[ci])
	seen[ci]++
	cs := &e.comps[ci]
	if cs.done.Load() {
		return
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.done.Load() || cs.cursor != k {
		return
	}
	failed, err := e.lv.Replay(e.ds, e.plan.Idx[i:i+1], buf)
	cs.cursor++
	if err != nil || cs.cursor == cs.n {
		e.finish(int(ci), failed, err, true)
	}
}

// finish completes component ci with its replay outcome (failed is the
// record whose replay returned err): it installs the component's writes
// (on success), counts the completion by trigger, advances the progress
// gauges, and publishes done. The caller holds the component's mutex.
func (e *Engine) finish(ci int, failed *core.Record, err error, swept bool) {
	cs, c := &e.comps[ci], e.plan.Components[ci]
	cs.err = err
	if err != nil {
		cs.errLSN = failed.LSN
	} else {
		// Presence bits share words across components, so the install
		// needs the state lock.
		e.mu.Lock()
		core.InstallWrites(e.ds, e.state, c.Writes)
		e.mu.Unlock()
	}
	cs.redone.Add(1)
	if swept {
		e.swept.Add(1)
		e.rec.Inc(obs.MServeSwept)
	} else {
		e.lazy.Add(1)
		e.rec.Inc(obs.MServeLazy)
	}
	e.pagesRecovered.Add(int64(len(c.Writes)))
	n := e.recovered.Add(1)
	e.rec.SetGauge(obs.GServeComps, n)
	e.rec.SetGauge(obs.GServePages, e.pagesRecovered.Load())
	if n == int64(len(e.plan.Components)) {
		d := time.Since(e.start)
		if d <= 0 {
			d = 1
		}
		e.fullyAt.Store(int64(d))
		e.doneOnce.Do(func() { close(e.done) })
	}
	// Published last: a caller that sees done without taking cs.mu (Drain
	// racing the sweeper) must also see the component counted, or Result
	// reports it as still unrecovered.
	cs.done.Store(true)
}

// Drain recovers every remaining component inline — the sweep's walk of
// the admitted records in log order — then returns the smallest-LSN
// sticky replay error, if any: the failure sequential replay hits.
// Serving continues during and after the drain; Drain alongside a
// running sweeper is safe and just splits the remaining work.
func (e *Engine) Drain() error {
	var buf core.ReplayBuf
	seen := make([]int32, len(e.comps))
	for i := range e.plan.Of {
		e.step(i, seen, &buf)
	}
	// The walk reached every component's last record, so every
	// component is done and its sticky error published.
	return e.firstErr()
}

// firstErr returns the sticky replay error with the smallest failing
// LSN, or nil. Every component must be done.
func (e *Engine) firstErr() error {
	var first *compState
	for ci := range e.comps {
		if cs := &e.comps[ci]; cs.err != nil && (first == nil || cs.errLSN < first.errLSN) {
			first = cs
		}
	}
	if first == nil {
		return nil
	}
	return first.err
}

// sweep is the background sweeper: after the optional delay it walks the
// admitted records in log order, one step each, stopping early when
// Close is called. Replay errors are sticky on the component; the touch
// that needs it will surface them.
func (e *Engine) sweep(delay time.Duration) {
	defer close(e.sweeperDone)
	if delay > 0 {
		select {
		case <-time.After(delay):
		case <-e.stop:
			return
		}
	}
	var buf core.ReplayBuf
	seen := make([]int32, len(e.comps))
	for i := range e.plan.Of {
		select {
		case <-e.stop:
			return
		default:
		}
		e.step(i, seen, &buf)
	}
}

// Done returns a channel closed once every component has recovered —
// full recovery, reached lazily, by sweep, or both.
func (e *Engine) Done() <-chan struct{} { return e.done }

// fullyRecovered reports whether every component has replayed.
func (e *Engine) fullyRecovered() bool {
	return e.recovered.Load() == int64(len(e.plan.Components))
}

// Close stops the background sweeper (if any) and waits for it to exit.
// The engine itself keeps serving; Close only quiesces background work.
func (e *Engine) Close() {
	e.stopOnce.Do(func() { close(e.stop) })
	<-e.sweeperDone
}

// Result materializes the recovery outcome once every component has
// recovered (it errors before that, and surfaces the smallest-LSN
// sticky replay failure). With no post-crash Execs the result is
// SameOutcome-equivalent to sequential Recover over the same survivors —
// the fuzzer's leg 8 asserts it across methods, crash points, and touch
// orders; with Execs the state additionally carries the committed
// writes in commit order (see Commits).
func (e *Engine) Result() (*core.Result, error) {
	if !e.fullyRecovered() {
		return nil, fmt.Errorf("serve: %d of %d components still unrecovered", int64(len(e.plan.Components))-e.recovered.Load(), len(e.plan.Components))
	}
	if err := e.firstErr(); err != nil {
		return nil, err
	}
	return e.decision.Result(e.state), nil
}

// Commits returns the committed post-crash operations in commit order —
// the serialization the equivalence oracle replays on top of the
// offline recovery outcome.
func (e *Engine) Commits() []model.OpID {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]model.OpID, len(e.commits))
	copy(out, e.commits)
	return out
}

// Stats is a point-in-time summary of the serving engine.
type Stats struct {
	// Components and Recovered count interference components (the units
	// of lazy redo); PagesRecovered counts recovered written pages.
	Components, Recovered, PagesRecovered int
	// Reads and Writes count served client operations; Lazy and Swept
	// split recovered components by trigger.
	Reads, Writes, Lazy, Swept int64
	// FirstRead is the time from engine start to the first served read
	// (0 until one happens); FullRecovery is the time from engine start
	// to the last component's recovery (0 until fully recovered).
	FirstRead, FullRecovery time.Duration
}

// Stats returns the engine's current counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Components:     len(e.plan.Components),
		Recovered:      int(e.recovered.Load()),
		PagesRecovered: int(e.pagesRecovered.Load()),
		Reads:          e.reads.Load(),
		Writes:         e.writes.Load(),
		Lazy:           e.lazy.Load(),
		Swept:          e.swept.Load(),
		FirstRead:      time.Duration(e.firstRead.Load()),
		FullRecovery:   time.Duration(e.fullyAt.Load()),
	}
}
