package sim

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"redotheory/internal/core"
	"redotheory/internal/fault"
	"redotheory/internal/method"
	"redotheory/internal/model"
	"redotheory/internal/obs"
	"redotheory/internal/partition"
	"redotheory/internal/serve"
	"redotheory/internal/stategraph"
	"redotheory/internal/supervise"
	"redotheory/internal/workload"
)

// Cell is one crash scenario: a method's history over Pages pages,
// crashed after Crash operations under a background schedule, plus the
// plans the legs that need them read. Every grid — the crash matrix,
// the media-fault and nested-crash campaigns, the shard grid and the
// fuzzer — is a list of cells checked by Run against a set of legs,
// and a failing cell of any of them is one repro artifact.
type Cell struct {
	Method NamedFactory
	// Shape names the generator that produced Ops and Seed the grid seed
	// the cell was derived from; both only label reports and artifacts.
	Shape string
	Seed  int64
	// Pages sizes the initial state, workload.InitialState(workload.Pages(Pages)).
	Pages int
	Ops   []*model.Op
	// Crash crashes the system after that many operations (0..len(Ops)).
	Crash int
	Sched Sched
	// Workers is the parallel leg's pool size (0: the leg only confirms
	// the sequential leg ran).
	Workers int
	// Fault is the faulted leg's media-fault plan, armed before the
	// history executes.
	Fault *fault.Plan
	// Nested is the supervised leg's restart plan.
	Nested Nested
	// Shards, when set, are per-shard crash points: the sharded leg runs
	// Ops as a cross-shard history over len(Shards) shards
	// (BuildShardedCrashed). Unset, the leg derives a two-shard sibling
	// of the cell (shardSibling).
	Shards []int
	// Recorder, when non-nil, is attached to the DB for the whole run and
	// threaded through every leg. Recorders are race-clean, so one may be
	// shared across concurrent cells to aggregate a grid.
	Recorder *obs.Recorder
	// DisableWAL injects the write-ahead-log fault. OnlineAudit attaches a
	// core.Auditor that follows the execution live and audits the store
	// after every operation; it is only valid for methods that log one
	// record per operation through the cache (the page-LSN family).
	DisableWAL, OnlineAudit bool
}

// Nested is the supervised leg's plan: the supervisor's crash schedule
// (entry k is how many operations recovery attempt k installs before it
// is crashed), its progress-checkpoint period K, its seed, and its
// attempt budget (0: len(Crashes) + 8, the full ladder after the last
// injected crash).
type Nested struct {
	Crashes     []int `json:"crashes,omitempty"`
	Every       int   `json:"every"`
	Seed        int64 `json:"seed"`
	MaxAttempts int   `json:"max_attempts,omitempty"`
}

// String renders the cell coordinate for reports.
func (c *Cell) String() string {
	s := fmt.Sprintf("%s/%s seed=%d ops=%d crash=%d sched=%d nested=%v",
		c.Method.Name, c.Shape, c.Seed, len(c.Ops), c.Crash, c.Sched.Seed, c.Nested.Crashes)
	if c.Fault != nil {
		s += fmt.Sprintf(" fault=%s/%d", c.Fault.Kind, c.Fault.Seed)
	}
	if c.Shards != nil {
		s += fmt.Sprintf(" shards=%v", c.Shards)
	}
	return s
}

// Legs is a set of oracle legs. Run executes a set in the order of
// legTable whatever order the bits are named in.
type Legs uint

// The legs, in execution order. Every leg checks the paper's one
// criterion from a different engine: recovery reaches the state the
// surviving log determines (Lemma 1, Theorem 3), and the installed
// prefix explains the stable state (Corollary 4).
const (
	// LegInvariant: core.Checker finds the crash state explainable.
	LegInvariant Legs = 1 << iota
	// LegDetermined: the state graph's final state is the oracle replay
	// (the Theorem 3 identity).
	LegDetermined
	// LegSequential: method recovery reaches the oracle state.
	LegSequential
	// LegParallel: partitioned recovery reproduces the sequential
	// outcome bit for bit.
	LegParallel
	// LegDegraded: degraded recovery on clean substrates takes its fast
	// path to the oracle state and passes its audit.
	LegDegraded
	// LegServe: lazy per-page recovery serves the oracle at every read,
	// with and without post-crash writes.
	LegServe
	// LegSharded: per-shard recovery from the certified cut matches the
	// merged single-log oracle.
	LegSharded
	// LegSupervised: supervised recovery, crashed per the nested plan,
	// converges to the oracle state with monotone install progress. It
	// installs into the stable state, so it runs after every clean leg.
	LegSupervised
	// LegFaulted: under the fault plan, recovery is never silently
	// corrupt. It damages the substrates, so grids run it alone.
	LegFaulted
)

// The legs each grid runs. CleanLegs is every leg but LegFaulted: the
// fuzzer's clean cells.
const (
	MatrixLegs = LegInvariant | LegSequential | LegParallel
	CleanLegs  = LegFaulted - 1
)

// legTable is the ordered leg table Run walks.
var legTable = []struct {
	leg  Legs
	name string
	run  func(*probe) (check, detail string, err error)
}{
	{LegInvariant, "invariant", (*probe).invariant},
	{LegDetermined, "determined-state", (*probe).determined},
	{LegSequential, "sequential", (*probe).sequential},
	{LegParallel, "parallel", (*probe).parallel},
	{LegDegraded, "degraded", (*probe).degraded},
	{LegServe, "serve", (*probe).serve},
	{LegSharded, "sharded", (*probe).sharded},
	{LegSupervised, "supervised", (*probe).supervised},
	{LegFaulted, "faulted", (*probe).faulted},
}

// Names lists the set's leg names in execution order.
func (l Legs) Names() []string {
	var out []string
	for _, e := range legTable {
		if l&e.leg != 0 {
			out = append(out, e.name)
		}
	}
	return out
}

// ParseLegs is the inverse of Legs.Names.
func ParseLegs(names []string) (Legs, error) {
	var l Legs
	for _, n := range names {
		i := 0
		for i < len(legTable) && legTable[i].name != n {
			i++
		}
		if i == len(legTable) {
			return 0, fmt.Errorf("sim: unknown leg %q", n)
		}
		l |= legTable[i].leg
	}
	return l, nil
}

// Result is what one cell's legs observed.
type Result struct {
	Cell Cell
	Legs Legs
	// Check and Detail name the first leg check that dissented and why
	// ("" when every leg agreed). Later legs still run and report.
	Check, Detail string

	// Recovered: the sequential leg reached the oracle state.
	Recovered bool
	// InvariantOK is the invariant leg's verdict (false when it did not
	// run), Violations its findings.
	InvariantOK bool
	Violations  []core.Violation
	// StableOps is how many operations survived in the stable log;
	// Replayed and Examined count what sequential recovery redid and
	// read, and Wall is its wall-clock duration.
	StableOps, Replayed, Examined int
	Wall                          time.Duration
	// Stats carries the method's counters at crash time, and
	// TruncatedRecords the log records truncation dropped.
	Stats            method.Stats
	TruncatedRecords int
	// OnlineOK is the live auditor's verdict (true without OnlineAudit),
	// OnlineAudits how many audits it performed.
	OnlineOK     bool
	OnlineAudits int
	// ParallelAgrees: the parallel leg reproduced the sequential outcome
	// (true when Workers was 0 and the sequential leg ran). Plan is the
	// partition the parallel leg replayed.
	ParallelAgrees bool
	Plan           partition.Stats

	// Fault, Supervised and Sharded are the faulted, supervised and
	// sharded legs' reports (nil when the leg did not run).
	Fault      *FaultResult
	Supervised *supervise.Result
	Sharded    *ShardedCheck
}

// OK reports whether every leg agreed.
func (r *Result) OK() bool { return r.Check == "" }

// Run executes the cell and runs the legs over its crash, in table
// order. Every leg runs and reports; the first dissent is the verdict.
// The error return is reserved for harness breakage (an illegal
// history, a crash point out of range).
func Run(c Cell, legs Legs) (*Result, error) {
	p := &probe{c: c, res: &Result{Cell: c, Legs: legs, OnlineOK: true}}
	for _, e := range legTable {
		if legs&e.leg == 0 {
			continue
		}
		check, detail, err := e.run(p)
		if err != nil {
			return nil, err
		}
		if check != "" && p.res.Check == "" {
			p.res.Check, p.res.Detail = check, detail
		}
	}
	return p.res, nil
}

// runCells runs every cell's legs on a pool of at most workers
// goroutines (one when workers ≤ 1) and returns the results in cell
// order, so completion order never reorders them. On failure it returns
// the error of the earliest failing cell — what a sequential sweep
// would have reported.
func runCells(cells []Cell, legs Legs, workers int) ([]*Result, error) {
	return pool(len(cells), workers, func(i int) (*Result, error) {
		r, err := Run(cells[i], legs)
		if err != nil {
			return nil, fmt.Errorf("sim: cell %s: %w", cells[i].String(), err)
		}
		return r, nil
	})
}

// pool runs run(i) for every i in [0, n) on at most workers goroutines
// and returns the results in index order (see runCells).
func pool[T any](n, workers int, run func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < max(1, min(workers, n)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				out[i], errs[i] = run(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// probe is one cell's run: the crashed DB, built on first use, and what
// earlier legs left for later ones.
type probe struct {
	c       Cell
	res     *Result
	db      method.DB
	inj     *fault.Injector
	oracle  *model.State
	checker *core.Checker
	seq     *core.Result
}

// crashed executes the history up to the crash through the one crash
// loop (Sched.run), with the fault plan armed and the matrix's hooks
// attached, crashes, and captures the oracle: the state the stable log
// determines (Determined), taken before any leg repairs or installs.
func (p *probe) crashed() error {
	if p.db != nil {
		return nil
	}
	c := p.c
	db := c.Method.New(workload.InitialState(workload.Pages(c.Pages)))
	db.SetRecorder(c.Recorder)
	if c.DisableWAL {
		db.DisableWAL()
	}
	if c.Fault != nil {
		p.inj = c.Fault.New()
		db.Store().SetInjector(p.inj)
	}
	var auditor *core.Auditor
	var step func(i int) error
	if c.OnlineAudit {
		auditor = core.NewAuditor(workload.InitialState(workload.Pages(c.Pages)))
		db.SetInstallHook(auditor.PageInstalled)
		step = onlineAuditStep(db, auditor, c.Ops, &p.res.OnlineOK)
	}
	truncated, err := c.Sched.run(db, c.Ops, c.Crash, step)
	if err != nil {
		return err
	}
	if auditor != nil {
		p.res.OnlineAudits = auditor.Audits
	}
	p.res.Stats, p.res.TruncatedRecords = db.Stats(), truncated
	db.Crash()
	if p.oracle, err = Determined(db); err != nil {
		return err
	}
	p.db = db
	return nil
}

// onlineAuditStep is the crash loop's step under the live auditor: a
// crash after any operation must leave an explainable stable state, so
// it audits the store after each one. A failed audit clears *ok.
func onlineAuditStep(db method.DB, auditor *core.Auditor, ops []*model.Op, ok *bool) func(i int) error {
	return func(i int) error {
		if _, err := auditor.Logged(ops[i]); err != nil {
			return fmt.Errorf("sim: online auditor: %w", err)
		}
		if rep := auditor.Audit(db.StableState()); !rep.OK {
			*ok = false
		}
		return nil
	}
}

// check builds the invariant checker over the stable log once.
func (p *probe) check(log *core.Log) (*core.Checker, error) {
	if p.checker == nil {
		checker, err := core.NewChecker(log, p.db.RecoveryBase())
		if err != nil {
			return nil, fmt.Errorf("sim: building checker: %w", err)
		}
		p.checker = checker
	}
	return p.checker, nil
}

func (p *probe) invariant() (string, string, error) {
	if err := p.crashed(); err != nil {
		return "", "", err
	}
	sv := method.Survivors(p.db)
	checker, err := p.check(sv.Log)
	if err != nil {
		return "", "", err
	}
	rep := checker.Check(sv.State, sv.Log, sv.Checkpoint, sv.Redo, sv.Analyze, false)
	p.res.InvariantOK, p.res.Violations = rep.OK, rep.Violations
	if !rep.OK {
		return "invariant", fmt.Sprintf("%v", rep.Violations), nil
	}
	return "", "", nil
}

func (p *probe) determined() (string, string, error) {
	if err := p.crashed(); err != nil {
		return "", "", err
	}
	checker := p.checker
	if checker == nil {
		var err error
		if checker, err = p.check(method.Survivors(p.db).Log); err != nil {
			return "", "", err
		}
	}
	// The checker's final state is itself a log-order replay, so the
	// reference is the state graph's: its canonical linearization of the
	// conflict graph must determine the same state (Lemma 1, Theorem 3).
	sg, err := stategraph.FromConflict(checker.Conflict(), p.db.RecoveryBase())
	if err != nil {
		return "", "", fmt.Errorf("sim: building state graph: %w", err)
	}
	if !sg.FinalState().Equal(p.oracle) {
		return "determined-state", "state graph final state diverges from sequential log replay", nil
	}
	return "", "", nil
}

func (p *probe) sequential() (string, string, error) {
	if err := p.crashed(); err != nil {
		return "", "", err
	}
	sv := method.Survivors(p.db)
	p.res.StableOps = sv.Log.Len()
	start := time.Now()
	seq, err := core.RecoverDense(p.c.Recorder, sv)
	p.res.Wall = time.Since(start)
	if err != nil {
		return "sequential-error", err.Error(), nil
	}
	p.seq = seq
	p.res.Replayed, p.res.Examined = len(seq.Replayed), seq.Examined
	if p.res.Recovered = seq.State.Equal(p.oracle); !p.res.Recovered {
		return "sequential-oracle", fmt.Sprintf("recovered state diverges from oracle (replayed %d of %d stable ops)",
			len(seq.Replayed), p.res.StableOps), nil
	}
	return "", "", nil
}

// parallel compares against the sequential leg's outcome; without one
// (the leg did not run, or failed) it has nothing to compare.
func (p *probe) parallel() (string, string, error) {
	if p.seq == nil {
		return "", "", nil
	}
	p.res.ParallelAgrees = true
	if p.c.Workers <= 0 {
		return "", "", nil
	}
	par, err := method.RecoverParallel(p.db, method.ParallelOptions{Workers: p.c.Workers, Recorder: p.c.Recorder})
	if err != nil {
		p.res.ParallelAgrees = false
		return "parallel-error", err.Error(), nil
	}
	p.res.Plan = par.Plan()
	if err := par.SameOutcome(p.seq); err != nil {
		p.res.ParallelAgrees = false
		return "parallel-divergence", err.Error(), nil
	}
	return "", "", nil
}

// degraded runs degraded recovery on the clean crash: it must detect
// nothing and stay on its fast path, which leaves the survivors
// untouched (the conservative path would rewrite the store).
func (p *probe) degraded() (string, string, error) {
	if err := p.crashed(); err != nil {
		return "", "", err
	}
	deg, err := method.RecoverDegraded(p.db, method.RunToCompletion())
	switch {
	case err != nil:
		return "degraded-error", err.Error(), nil
	case len(deg.Detections) > 0:
		return "degraded-spurious-detection", fmt.Sprintf("clean substrates, detections %v", deg.Detections), nil
	case deg.Degraded:
		return "degraded-path", "clean substrates routed to the conservative path", nil
	case deg.Unrecoverable:
		return "degraded-unrecoverable", "clean substrates declared unrecoverable", nil
	case deg.State == nil || !deg.State.Equal(p.oracle):
		return "degraded-state", "degraded recovery diverges from oracle", nil
	case deg.Audit == nil:
		return "degraded-audit", "degraded audit failed: no audit report", nil
	case !deg.Audit.OK:
		return "degraded-audit", fmt.Sprintf("degraded audit failed: %v", deg.Audit.Violations), nil
	}
	return "", "", nil
}

// serve checks lazy per-page recovery against the sequential leg at
// every observation point, for a seeded touch order, with and without
// post-crash writes. The engine works on its own survivors value and a
// private WAL, so the crashed DB is untouched for the legs that follow.
func (p *probe) serve() (string, string, error) {
	if p.seq == nil {
		return "", "", nil
	}
	pages := workload.Pages(p.c.Pages)
	seed := MixSeed(p.c.Sched.Seed, 7)
	rng := rand.New(rand.NewSource(seed))
	rec := p.c.Recorder

	// Read-only, random touch order: every served read already equals
	// the oracle, and the drained result is the sequential outcome.
	eng, err := serve.New(p.db, serve.Options{Recorder: rec})
	if err != nil {
		return "serve-error", err.Error(), nil
	}
	for _, pi := range rng.Perm(len(pages)) {
		pg := pages[pi]
		v, err := eng.Read(pg)
		if err != nil {
			return "serve-error", fmt.Sprintf("reading %s (touch seed %d): %v", pg, seed, err), nil
		}
		if want := p.oracle.Get(pg); v != want {
			return "serve-read", fmt.Sprintf("page %s served %q before full recovery, oracle has %q (touch seed %d)",
				pg, v, want, seed), nil
		}
	}
	if err := eng.Drain(); err != nil {
		return "serve-error", "drain: " + err.Error(), nil
	}
	res, err := eng.Result()
	if err != nil {
		return "serve-error", err.Error(), nil
	}
	if err := res.SameOutcome(p.seq); err != nil {
		return "serve-divergence", err.Error(), nil
	}

	// A seeded mixed client schedule — reads interleaved with post-crash
	// writes, the background sweeper racing both — against the oracle
	// state plus the same writes in commit order.
	eng2, err := serve.New(p.db, serve.Options{Recorder: rec, Sweeper: true})
	if err != nil {
		return "serve-error", err.Error(), nil
	}
	defer eng2.Close()
	var maxID model.OpID
	for _, op := range p.c.Ops {
		maxID = max(maxID, op.ID())
	}
	ref := p.oracle.Clone()
	nextID := maxID + 1
	for i := 0; i < 2*len(pages); i++ {
		pg := pages[rng.Intn(len(pages))]
		if rng.Float64() < 0.3 {
			op := model.ReadWrite(nextID, "post", []model.Var{pg}, []model.Var{pg})
			nextID++
			if err := eng2.Exec(op); err != nil {
				return "serve-exec-error", fmt.Sprintf("%s (touch seed %d): %v", op, seed, err), nil
			}
			if _, err := ref.Apply(op); err != nil {
				return "serve-exec-error", err.Error(), nil
			}
			continue
		}
		v, err := eng2.Read(pg)
		if err != nil {
			return "serve-error", fmt.Sprintf("mixed read %s (touch seed %d): %v", pg, seed, err), nil
		}
		if want := ref.Get(pg); v != want {
			return "serve-mixed-read", fmt.Sprintf("page %s served %q mid-stream, oracle+writes has %q (touch seed %d)",
				pg, v, want, seed), nil
		}
	}
	if err := eng2.Drain(); err != nil {
		return "serve-error", "mixed drain: " + err.Error(), nil
	}
	res2, err := eng2.Result()
	if err != nil {
		return "serve-error", err.Error(), nil
	}
	if !res2.State.Equal(ref) {
		return "serve-mixed-divergence", fmt.Sprintf("drained state diverges from oracle+writes on %v (touch seed %d)",
			res2.State.Diff(ref), seed), nil
	}
	return "", "", nil
}

// supervised runs the supervisor under the nested plan (Corollary 4:
// recovery crashed at any point simply restarts and finishes). With
// K = 1 every attempt that installed work must strictly advance the
// install measure; the degraded rung replays conservatively without the
// installing pass, so its attempts are held to non-regression only,
// which Supervise itself enforces. A flight recorder sinking the cell's
// recorder keeps the nested crashes' snapshots.
func (p *probe) supervised() (string, string, error) {
	if err := p.crashed(); err != nil {
		return "", "", err
	}
	n := p.c.Nested
	attempts := n.MaxAttempts
	if attempts <= 0 {
		attempts = len(n.Crashes) + 8
	}
	flight, _ := p.c.Recorder.Sink().(*obs.FlightRecorder)
	sup, err := supervise.Supervise(p.db, supervise.Options{
		MaxAttempts:   attempts,
		ProgressEvery: n.Every,
		Seed:          n.Seed,
		Crashes:       supervise.CrashPlan{Points: n.Crashes},
		Recorder:      p.c.Recorder,
		Flight:        flight,
		Sleep:         func(time.Duration) {}, // cells never wall-clock sleep
	})
	if err != nil {
		return "supervised-error", err.Error(), nil
	}
	p.res.Supervised = sup
	switch {
	case !sup.Converged:
		return "supervised-nonconvergence", fmt.Sprintf("supervised recovery exhausted %d attempts under schedule %v (rung %s)",
			len(sup.Attempts), n.Crashes, sup.Rung), nil
	case sup.State == nil || !sup.State.Equal(p.oracle):
		return "supervised-oracle", fmt.Sprintf("supervised recovery diverges from oracle under schedule %v (rung %s)",
			n.Crashes, sup.Rung), nil
	}
	if sup.InstallCapable && n.Every == 1 {
		last := -1
		for _, a := range sup.Attempts {
			if a.Rung != supervise.RungDegraded && a.Installed > 0 && last >= 0 && a.Progress <= last {
				return "supervised-monotonicity", "an attempt installed work without advancing the install measure", nil
			}
			last = a.Progress
		}
	}
	return "", "", nil
}
