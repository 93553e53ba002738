package fuzz

import (
	"fmt"
	"math/rand"
	"time"

	"redotheory/internal/core"
	"redotheory/internal/method"
	"redotheory/internal/model"
	"redotheory/internal/obs"
	"redotheory/internal/serve"
	"redotheory/internal/shard"
	"redotheory/internal/sim"
	"redotheory/internal/supervise"
	"redotheory/internal/workload"
)

// disagreement is one oracle leg's dissent.
type disagreement struct {
	check  string
	detail string
	// flight is the flight-recorder dump captured around the failing
	// cell — the events leading into the disagreement, plus any crash
	// snapshots the supervised leg preserved. Attached to the repro
	// artifact by Config.fail.
	flight *obs.FlightDump
}

// coverage carries the per-cell coverage observations.
type coverage struct {
	replayed   int
	examined   int
	components int
	partSig    string
}

// checkCell executes one cell and runs the full differential oracle
// over the crash survivors:
//
//  1. oracle state — the recovery base plus the stable log replayed in
//     log order. By Lemma 1 and Theorem 3 this is the determined state,
//     the unique correct recovery outcome for a clean crash.
//  2. invariant — the core checker's explainability verdict on the
//     stable state, checkpoint set, and redo test.
//  3. determined-state — the state graph's final state must equal the
//     sequential oracle replay (the Theorem 3 identity itself).
//  4. sequential — method.Recover must reach the oracle state.
//  5. parallel — method.RecoverParallel must reproduce the sequential
//     outcome bit for bit (SameOutcome).
//  6. degraded — method.RecoverDegraded on these undamaged substrates
//     must take its fast path (no detections, not degraded), reach the
//     oracle state, and pass its own audit. Its conservative path would
//     mutate the store in place; on a clean cell the fast path leaves
//     the survivors untouched.
//  7. supervised — supervise.Supervise under the cell's nested-crash
//     schedule must converge to the oracle state (Corollary 4: recovery
//     crashed at any point simply restarts and finishes). It runs last
//     of all because its installing attempts persist redone work into
//     the stable state.
//  8. serve — the instant-restart engine (internal/serve) must agree
//     with sequential recovery under lazy per-page redo: first with a
//     seeded random touch order (every served read must already equal
//     the oracle value, and the drained result must be SameOutcome with
//     leg 4), then with a seeded mixed client schedule of reads and
//     post-crash writes checked against the oracle state plus those
//     writes in commit order. Despite the numbering it executes before
//     the supervised leg — the serve engine consumes its own survivors
//     value and a private WAL, while supervised attempts persist redone
//     work into the stable state.
//
// A non-nil disagreement identifies the first leg that dissented. The
// error return is reserved for harness breakage.
//
// Every cell runs under a flight recorder: a bounded event ring
// attached as the recorder's sink for the cell's duration (created
// along with a throwaway recorder when the caller passed none). On a
// disagreement the ring is dumped into the result, so repro artifacts
// carry the telemetry leading into the failure — including the crash
// snapshots the supervised leg preserved. A recorder that is already
// sinking keeps its own stream and no flight is captured.
func checkCell(m sim.NamedFactory, cell Cell, rec *obs.Recorder, failCheck func(ops []*model.Op, crash int) string) (*disagreement, *coverage, error) {
	if rec == nil {
		rec = obs.New()
	}
	var flight *obs.FlightRecorder
	if !rec.Sinking() {
		flight = obs.NewFlightRecorder(512)
		rec.SetSink(flight)
		defer rec.SetSink(nil)
	}
	dis, cov, err := checkCellRun(m, cell, rec, flight, failCheck)
	if dis != nil && flight != nil {
		// Stamp the verdict into the ring before dumping, so even a
		// disagreement raised ahead of any instrumented activity leaves a
		// non-empty flight dump naming the failed check.
		rec.Emit(obs.Event{Type: obs.EvDetection, Detail: dis.check + ": " + dis.detail})
		dis.flight = flight.Dump()
	}
	return dis, cov, err
}

// checkCellRun is checkCell's body, with the flight ring threaded into
// the supervised leg so nested-crash snapshots are preserved.
func checkCellRun(m sim.NamedFactory, cell Cell, rec *obs.Recorder, flight *obs.FlightRecorder, failCheck func(ops []*model.Op, crash int) string) (*disagreement, *coverage, error) {
	db, err := execute(m.New, cell, rec)
	if err != nil {
		return nil, nil, err
	}

	sv := method.Survivors(db)

	// Leg 1: the oracle state.
	oracle, err := sim.Determined(db)
	if err != nil {
		return nil, nil, fmt.Errorf("fuzz: %w", err)
	}

	// Test-only injected oracle bug (see Config.failCheck).
	if failCheck != nil {
		if msg := failCheck(cell.History.Ops, cell.Crash); msg != "" {
			return &disagreement{check: "injected", detail: msg}, nil, nil
		}
	}

	// Legs 2 and 3: explainability and the determined state.
	checker, err := core.NewCheckerObserved(sv.Log, db.RecoveryBase(), rec)
	if err != nil {
		return nil, nil, fmt.Errorf("fuzz: building checker: %w", err)
	}
	if chk := checker.Check(sv.State, sv.Log, sv.Checkpoint, sv.Redo, sv.Analyze, false); !chk.OK {
		return &disagreement{check: "invariant", detail: fmt.Sprintf("%v", chk.Violations)}, nil, nil
	}
	if !checker.FinalState().Equal(oracle) {
		return &disagreement{check: "determined-state",
			detail: "state graph final state diverges from sequential log replay"}, nil, nil
	}

	// Leg 4: sequential recovery.
	seq, err := method.RecoverObserved(db, rec)
	if err != nil {
		return &disagreement{check: "sequential-error", detail: err.Error()}, nil, nil
	}
	if !seq.State.Equal(oracle) {
		return &disagreement{check: "sequential-oracle",
			detail: fmt.Sprintf("recovered state diverges from oracle (replayed %d of %d stable ops)",
				len(seq.Replayed), sv.Log.Len())}, nil, nil
	}

	// Leg 5: partitioned parallel recovery.
	par, err := method.RecoverParallel(db, method.ParallelOptions{Workers: cell.Workers, Recorder: rec})
	if err != nil {
		return &disagreement{check: "parallel-error", detail: err.Error()}, nil, nil
	}
	if err := par.SameOutcome(seq); err != nil {
		return &disagreement{check: "parallel-divergence", detail: err.Error()}, nil, nil
	}

	plan := par.Plan()
	cov := &coverage{
		replayed:   len(seq.Replayed),
		examined:   seq.Examined,
		components: plan.Components,
		partSig:    plan.Signature(),
	}

	// Leg 6: degraded recovery on clean substrates.
	deg, err := method.RecoverDegraded(db, method.RunToCompletion())
	if err != nil {
		return &disagreement{check: "degraded-error", detail: err.Error()}, cov, nil
	}
	switch {
	case len(deg.Detections) > 0:
		return &disagreement{check: "degraded-spurious-detection",
			detail: fmt.Sprintf("clean substrates, detections %v", deg.Detections)}, cov, nil
	case deg.Degraded:
		return &disagreement{check: "degraded-path",
			detail: "clean substrates routed to the conservative path"}, cov, nil
	case deg.Unrecoverable:
		return &disagreement{check: "degraded-unrecoverable",
			detail: "clean substrates declared unrecoverable"}, cov, nil
	case deg.State == nil || !deg.State.Equal(oracle):
		return &disagreement{check: "degraded-state",
			detail: "degraded recovery diverges from oracle"}, cov, nil
	case deg.Audit == nil || !deg.Audit.OK:
		return &disagreement{check: "degraded-audit",
			detail: fmt.Sprintf("degraded audit failed: %v", auditViolations(deg))}, cov, nil
	}

	// Leg 8: instant-restart serving (before leg 7 — see the leg list).
	if dis := checkServe(db, cell, seq, oracle, rec); dis != nil {
		return dis, cov, nil
	}

	// Leg 9: sharded recovery. Independent of the cell's DB — it
	// re-executes the cell-sized workload as a 2-shard cross-shard run
	// (crash points staggered off the cell's crash) and requires
	// per-shard recovery under the certified cut to match the merged
	// single-log oracle. Skipped for methods the sharding coordinator
	// cannot host and for empty histories.
	if dis := checkShardedLeg(m, cell, rec); dis != nil {
		return dis, cov, nil
	}

	// Leg 7: supervised recovery under the cell's nested-crash schedule.
	sup, err := supervise.Supervise(db, supervise.Options{
		MaxAttempts:   len(cell.NestedCrash) + 8,
		ProgressEvery: 2,
		Seed:          cell.Schedule.Seed,
		Crashes:       supervise.CrashPlan{Points: cell.NestedCrash},
		Recorder:      rec,
		Flight:        flight,
		Sleep:         func(time.Duration) {},
	})
	switch {
	case err != nil:
		return &disagreement{check: "supervised-error", detail: err.Error()}, cov, nil
	case !sup.Converged:
		return &disagreement{check: "supervised-nonconvergence",
			detail: fmt.Sprintf("supervised recovery exhausted %d attempts under schedule %v (rung %s)",
				len(sup.Attempts), cell.NestedCrash, sup.Rung)}, cov, nil
	case sup.State == nil || !sup.State.Equal(oracle):
		return &disagreement{check: "supervised-oracle",
			detail: fmt.Sprintf("supervised recovery diverges from oracle under schedule %v (rung %s)",
				cell.NestedCrash, sup.Rung)}, cov, nil
	}

	return nil, cov, nil
}

// checkServe is oracle leg 8: lazy per-page recovery must be
// indistinguishable from sequential recovery at every observation
// point, for any touch order, with or without concurrent post-crash
// writes. The engine works on fresh state/log projections and a
// private WAL, so the crashed DB is untouched for the legs that follow.
func checkServe(db method.DB, cell Cell, seq *core.Result, oracle *model.State, rec *obs.Recorder) *disagreement {
	pages := workload.Pages(cell.History.Pages)
	seed := sim.MixSeed(cell.Schedule.Seed, 7)
	rng := rand.New(rand.NewSource(seed))

	// 8a: read-only, random touch order.
	eng, err := serve.New(db, serve.Options{Recorder: rec})
	if err != nil {
		return &disagreement{check: "serve-error", detail: err.Error()}
	}
	for _, pi := range rng.Perm(len(pages)) {
		p := pages[pi]
		v, err := eng.Read(p)
		if err != nil {
			return &disagreement{check: "serve-error",
				detail: fmt.Sprintf("reading %s (touch seed %d): %v", p, seed, err)}
		}
		if want := oracle.Get(p); v != want {
			return &disagreement{check: "serve-read",
				detail: fmt.Sprintf("page %s served %q before full recovery, oracle has %q (touch seed %d)",
					p, v, want, seed)}
		}
	}
	if err := eng.Drain(); err != nil {
		return &disagreement{check: "serve-error", detail: "drain: " + err.Error()}
	}
	res, err := eng.Result()
	if err != nil {
		return &disagreement{check: "serve-error", detail: err.Error()}
	}
	if err := res.SameOutcome(seq); err != nil {
		return &disagreement{check: "serve-divergence", detail: err.Error()}
	}

	// 8b: seeded mixed client schedule — reads interleaved with
	// post-crash writes, the background sweeper racing both. The
	// reference applies the same writes, in commit order, on top of the
	// oracle state.
	eng2, err := serve.New(db, serve.Options{Recorder: rec, Sweeper: true})
	if err != nil {
		return &disagreement{check: "serve-error", detail: err.Error()}
	}
	defer eng2.Close()
	var maxID model.OpID
	for _, op := range cell.History.Ops {
		if op.ID() > maxID {
			maxID = op.ID()
		}
	}
	ref := oracle.Clone()
	nextID := maxID + 1
	for i := 0; i < 2*len(pages); i++ {
		p := pages[rng.Intn(len(pages))]
		if rng.Float64() < 0.3 {
			op := model.ReadWrite(nextID, "post", []model.Var{p}, []model.Var{p})
			nextID++
			if err := eng2.Exec(op); err != nil {
				return &disagreement{check: "serve-exec-error",
					detail: fmt.Sprintf("%s (touch seed %d): %v", op, seed, err)}
			}
			if _, err := ref.Apply(op); err != nil {
				return &disagreement{check: "serve-exec-error", detail: err.Error()}
			}
		} else {
			v, err := eng2.Read(p)
			if err != nil {
				return &disagreement{check: "serve-error",
					detail: fmt.Sprintf("mixed read %s (touch seed %d): %v", p, seed, err)}
			}
			if want := ref.Get(p); v != want {
				return &disagreement{check: "serve-mixed-read",
					detail: fmt.Sprintf("page %s served %q mid-stream, oracle+writes has %q (touch seed %d)",
						p, v, want, seed)}
			}
		}
	}
	if err := eng2.Drain(); err != nil {
		return &disagreement{check: "serve-error", detail: "mixed drain: " + err.Error()}
	}
	res2, err := eng2.Result()
	if err != nil {
		return &disagreement{check: "serve-error", detail: err.Error()}
	}
	if !res2.State.Equal(ref) {
		return &disagreement{check: "serve-mixed-divergence",
			detail: fmt.Sprintf("drained state diverges from oracle+writes on %v (touch seed %d)",
				res2.State.Diff(ref), seed)}
	}
	return nil
}

// checkShardedLeg is oracle leg 9: the sharded differential oracle
// (sim.CheckSharded) over a run shaped like the cell — same method,
// same length, schedule seed mixed from the cell's, and per-shard
// failure points staggered off the cell's crash point so the grid
// sweeps shard-crash placements exactly as it sweeps single-log crash
// points.
func checkShardedLeg(m sim.NamedFactory, cell Cell, rec *obs.Recorder) *disagreement {
	if !shard.Eligible(m.Name) || len(cell.History.Ops) == 0 {
		return nil
	}
	numOps := len(cell.History.Ops)
	crashes := make([]int, 2)
	for i := range crashes {
		crashes[i] = cell.Crash + 2*i
		if crashes[i] > numOps {
			crashes[i] = numOps
		}
	}
	check, err := sim.CheckSharded(sim.ShardedConfig{
		Method:        m,
		Shards:        2,
		NumOps:        numOps,
		PagesPerShard: (cell.History.Pages + 1) / 2,
		Seed:          sim.MixSeed(cell.Schedule.Seed, 9),
		Crashes:       crashes,
		Recorder:      rec,
	})
	if err != nil {
		return &disagreement{check: "sharded-error", detail: err.Error()}
	}
	rec.Inc(MShardCells)
	if !check.OK() {
		return &disagreement{check: "sharded-oracle",
			detail: fmt.Sprintf("crashes %v: %s", crashes, check.Mismatch)}
	}
	return nil
}

func auditViolations(deg *method.DegradedResult) interface{} {
	if deg.Audit == nil {
		return "no audit report"
	}
	return deg.Audit.Violations
}
