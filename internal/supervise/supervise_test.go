package supervise

import (
	"math/rand"
	"testing"
	"time"

	"redotheory/internal/core"
	"redotheory/internal/graph"
	"redotheory/internal/method"
	"redotheory/internal/model"
	"redotheory/internal/obs"
)

// noSleep keeps wall clock out of the tests.
func noSleep(time.Duration) {}

func pagesN(n int) []model.Var {
	out := make([]model.Var, n)
	for i := range out {
		out[i] = model.Var(string(rune('a' + i)))
	}
	return out
}

func initialState(ps []model.Var) *model.State {
	s := model.NewState()
	for i, p := range ps {
		s.SetInt(p, int64(100+i))
	}
	return s
}

// oracle is the determined state: the stable log applied in order to the
// recovery base.
func oracle(db method.DB) *model.State {
	s := db.RecoveryBase().Clone()
	for _, op := range db.StableLog().Ops() {
		if _, err := s.Apply(op); err != nil {
			panic(err)
		}
	}
	return s
}

func singlePageMk(id model.OpID, rng *rand.Rand, ps []model.Var) *model.Op {
	p := ps[rng.Intn(len(ps))]
	return model.ReadWrite(id, "upd", []model.Var{p}, []model.Var{p})
}

func readManyWriteOneMk(id model.OpID, rng *rand.Rand, ps []model.Var) *model.Op {
	var reads []model.Var
	for _, p := range ps {
		if rng.Float64() < 0.4 {
			reads = append(reads, p)
		}
	}
	return model.ReadWrite(id, "rw1", reads, []model.Var{ps[rng.Intn(len(ps))]})
}

func anyShapeMk(id model.OpID, rng *rand.Rand, ps []model.Var) *model.Op {
	var reads, writes []model.Var
	for _, p := range ps {
		if rng.Float64() < 0.4 {
			reads = append(reads, p)
		}
		if rng.Float64() < 0.4 {
			writes = append(writes, p)
		}
	}
	if len(writes) == 0 {
		writes = []model.Var{ps[rng.Intn(len(ps))]}
	}
	return model.ReadWrite(id, "any", reads, writes)
}

type methodCase struct {
	mk    func(*model.State) method.DB
	shape func(model.OpID, *rand.Rand, []model.Var) *model.Op
}

func allMethods() map[string]methodCase {
	return map[string]methodCase{
		"logical":           {func(s *model.State) method.DB { return method.NewLogical(s) }, anyShapeMk},
		"physical":          {func(s *model.State) method.DB { return method.NewPhysical(s) }, anyShapeMk},
		"physiological":     {func(s *model.State) method.DB { return method.NewPhysiological(s) }, singlePageMk},
		"physiological+dpt": {func(s *model.State) method.DB { return method.NewPhysiologicalDPT(s) }, singlePageMk},
		"genlsn":            {func(s *model.State) method.DB { return method.NewGenLSN(s) }, readManyWriteOneMk},
		"genlsn+mv":         {func(s *model.State) method.DB { return method.NewGenLSNMV(s) }, readManyWriteOneMk},
		"grouplsn":          {func(s *model.State) method.DB { return method.NewGroupLSN(s) }, anyShapeMk},
	}
}

// crashedDB builds a DB, runs a seeded workload with mixed flushes and
// checkpoints, and crashes it.
func crashedDB(t testing.TB, mc methodCase, seed int64, nops int) method.DB {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ps := pagesN(4)
	db := mc.mk(initialState(ps))
	for i := 1; i <= nops; i++ {
		if err := db.Exec(mc.shape(model.OpID(i*10), rng, ps)); err != nil {
			t.Fatalf("%s: exec: %v", db.Name(), err)
		}
		switch rng.Intn(5) {
		case 0:
			db.FlushOne()
		case 1:
			db.FlushLog()
		case 2:
			if err := db.Checkpoint(); err != nil {
				t.Fatalf("%s: checkpoint: %v", db.Name(), err)
			}
		}
	}
	db.FlushLog()
	db.Crash()
	return db
}

// TestSuperviseClean: no injected crashes or faults — every method
// converges on the first attempt, on the parallel rung, to the oracle.
func TestSuperviseClean(t *testing.T) {
	for name, mc := range allMethods() {
		t.Run(name, func(t *testing.T) {
			db := crashedDB(t, mc, 11, 12)
			want := oracle(db)
			res, err := Supervise(db, Options{Seed: 1, Sleep: noSleep})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged || res.Rung != RungParallel || len(res.Attempts) != 1 {
				t.Fatalf("converged=%v rung=%s attempts=%d", res.Converged, res.Rung, len(res.Attempts))
			}
			if !res.State.Equal(want) {
				t.Errorf("%s: supervised state diverges from oracle", name)
			}
		})
	}
}

// TestSuperviseEveryCrashIndexAndPair is the tentpole's monotone-
// progress regression test: crash the supervised recovery at every redo
// index, and at every pair of indices across two attempts, and prove
// (a) it still converges to the oracle, (b) the install counter
// strictly advances across every attempt that installed anything (with
// K=1 progress checkpoints, even the index-0 crash leaves the next
// attempt ahead or equal), and (c) progress never regresses — a
// regression would make Supervise return ErrProgressRegression, which
// the test treats as fatal.
func TestSuperviseEveryCrashIndexAndPair(t *testing.T) {
	for _, name := range []string{"physiological", "physiological+dpt", "physical", "genlsn", "genlsn+mv", "grouplsn"} {
		mc := allMethods()[name]
		t.Run(name, func(t *testing.T) {
			// Size the index space from a clean run.
			probe := crashedDB(t, mc, 23, 10)
			clean, err := Supervise(probe, Options{Seed: 1, Sleep: noSleep})
			if err != nil || !clean.Converged {
				t.Fatalf("probe: converged=%v err=%v", clean.Converged, err)
			}
			n := clean.TotalInstalls

			var plans []CrashPlan
			for i := 0; i <= n; i++ {
				plans = append(plans, CrashPlan{Points: []int{i}})
			}
			for i := 0; i <= n; i++ {
				for j := 0; j <= n; j++ {
					plans = append(plans, CrashPlan{Points: []int{i, j}})
				}
			}

			for _, plan := range plans {
				db := crashedDB(t, mc, 23, 10)
				want := oracle(db)
				res, err := Supervise(db, Options{
					Seed:          7,
					Sleep:         noSleep,
					Crashes:       plan,
					ProgressEvery: 1,
					MaxAttempts:   len(plan.Points) + 4,
					StartRung:     RungSequential,
					EscalateAfter: len(plan.Points) + 4, // keep the ladder out of this test
				})
				if err != nil {
					t.Fatalf("plan %v: %v", plan.Points, err)
				}
				if !res.Converged {
					t.Fatalf("plan %v: did not converge: %+v", plan.Points, res.Attempts)
				}
				if !res.State.Equal(want) {
					t.Fatalf("plan %v: fixed point diverges from oracle", plan.Points)
				}
				// Strict advance: every attempt that installed work must
				// raise the measure above the previous attempt's.
				last := -1
				for _, a := range res.Attempts {
					if last >= 0 && a.Progress < last {
						t.Fatalf("plan %v: progress regressed %d -> %d", plan.Points, last, a.Progress)
					}
					if a.Installed > 0 && last >= 0 && a.Progress <= last {
						t.Fatalf("plan %v: attempt %d installed %d ops but progress stuck at %d",
							plan.Points, a.Index, a.Installed, a.Progress)
					}
					if !a.AuditOK {
						t.Fatalf("plan %v: Corollary-4 audit failed after attempt %d", plan.Points, a.Index)
					}
					last = a.Progress
				}
				if wantCrashes := len(plan.Points); res.CrashesInjected > wantCrashes {
					t.Fatalf("plan %v: injected %d crashes", plan.Points, res.CrashesInjected)
				}
			}
		})
	}
}

// TestSuperviseLogicalNestedCrash: logical recovery keeps its work
// volatile, so a nested crash discards the attempt entirely and the
// retry starts over; there are no installs and no progress checkpoints.
func TestSuperviseLogicalNestedCrash(t *testing.T) {
	db := crashedDB(t, allMethods()["logical"], 5, 10)
	want := oracle(db)
	res, err := Supervise(db, Options{
		Seed:          3,
		Sleep:         noSleep,
		Crashes:       CrashPlan{Points: []int{0, 2}},
		EscalateAfter: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || len(res.Attempts) != 3 {
		t.Fatalf("converged=%v attempts=%d", res.Converged, len(res.Attempts))
	}
	if res.InstallCapable || res.TotalInstalls != 0 || res.ProgressCheckpoints != 0 {
		t.Fatalf("logical supervision claimed installs: %+v", res)
	}
	if res.CrashesInjected != 2 {
		t.Fatalf("crashes injected = %d", res.CrashesInjected)
	}
	if !res.State.Equal(want) {
		t.Error("state diverges from oracle")
	}
}

// TestSuperviseProgressCheckpoints: with K=2, a crashed attempt's
// checkpoints let the retry skip the settled prefix — the retry's
// install count covers only the remainder.
func TestSuperviseProgressCheckpoints(t *testing.T) {
	db := crashedDB(t, allMethods()["physiological"], 23, 10)
	want := oracle(db)
	clean, err := Supervise(crashedDB(t, allMethods()["physiological"], 23, 10), Options{Seed: 1, Sleep: noSleep})
	if err != nil || !clean.Converged {
		t.Fatalf("probe failed: %v", err)
	}
	n := clean.TotalInstalls
	if n < 4 {
		t.Fatalf("workload too small: %d installs", n)
	}

	res, err := Supervise(db, Options{
		Seed:          9,
		Sleep:         noSleep,
		Crashes:       CrashPlan{Points: []int{n - 1}},
		ProgressEvery: 2,
		StartRung:     RungSequential,
		EscalateAfter: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || !res.State.Equal(want) {
		t.Fatalf("converged=%v", res.Converged)
	}
	if res.ProgressCheckpoints == 0 {
		t.Fatal("no progress checkpoints appended")
	}
	// The retry must not redo the whole log: the crashed attempt
	// installed n-1 ops and checkpointed at least ⌊(n-1)/2⌋·2 of them.
	retry := res.Attempts[len(res.Attempts)-1]
	if retry.Installed >= n {
		t.Fatalf("retry reinstalled everything (%d of %d)", retry.Installed, n)
	}
}

// TestSuperviseLadder: persistent failures walk the ladder parallel →
// sequential → degraded, and the rung that finishes is reported.
func TestSuperviseLadder(t *testing.T) {
	db := crashedDB(t, allMethods()["physiological"], 31, 8)
	want := oracle(db)
	// Crash the first three attempts before any install: with
	// EscalateAfter=1 the ladder steps down after each.
	res, err := Supervise(db, Options{
		Seed:          5,
		Sleep:         noSleep,
		Crashes:       CrashPlan{Points: []int{0, 0, 0}},
		EscalateAfter: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Rung != RungDegraded {
		t.Fatalf("converged=%v rung=%s", res.Converged, res.Rung)
	}
	if res.Escalations != 2 {
		t.Fatalf("escalations = %d, want 2", res.Escalations)
	}
	if res.Degraded == nil {
		t.Fatal("degraded rung finished but its report is missing")
	}
	if !res.State.Equal(want) {
		t.Error("state diverges from oracle")
	}
	// One attempt per rung: the degraded rung's crash point maps onto
	// its abort-after-repairs knob, and a substrate needing no repairs
	// never reaches it — the third attempt completes.
	wantRungs := []Rung{RungParallel, RungSequential, RungDegraded}
	if len(res.Attempts) != len(wantRungs) {
		t.Fatalf("attempts = %d, want %d", len(res.Attempts), len(wantRungs))
	}
	for i, a := range res.Attempts {
		if a.Rung != wantRungs[i] {
			t.Errorf("attempt %d ran on %s, want %s", i, a.Rung, wantRungs[i])
		}
	}
}

// TestSuperviseTransientFaults: a lossy installer stream still
// converges — faulted attempts abort cleanly and the retry resumes from
// the progress checkpoints.
func TestSuperviseTransientFaults(t *testing.T) {
	for _, name := range []string{"physiological", "genlsn", "grouplsn"} {
		mc := allMethods()[name]
		t.Run(name, func(t *testing.T) {
			db := crashedDB(t, mc, 41, 14)
			want := oracle(db)
			res, err := Supervise(db, Options{
				Seed:               41,
				Sleep:              noSleep,
				TransientFaultRate: 0.25,
				ProgressEvery:      1,
				MaxAttempts:        40,
				StartRung:          RungSequential,
				EscalateAfter:      40,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatalf("did not converge: %+v", res.Attempts)
			}
			if !res.State.Equal(want) {
				t.Error("state diverges from oracle")
			}
			if res.TransientFaults != len(res.Attempts)-1 {
				t.Errorf("faults=%d attempts=%d: every non-final attempt should have faulted",
					res.TransientFaults, len(res.Attempts))
			}
		})
	}
}

// TestSuperviseBackoffDeterministic: same seed, same jittered backoff
// sequence; different seed, different jitter. The delays grow
// exponentially up to the cap and land in [Base/2, Max).
func TestSuperviseBackoffDeterministic(t *testing.T) {
	run := func(seed int64) []time.Duration {
		var slept []time.Duration
		db := crashedDB(t, allMethods()["physiological"], 17, 8)
		_, err := Supervise(db, Options{
			Seed:          seed,
			Sleep:         func(d time.Duration) { slept = append(slept, d) },
			Crashes:       CrashPlan{Points: []int{0, 0, 0, 0}},
			EscalateAfter: 10,
			BackoffBase:   time.Millisecond,
			BackoffMax:    4 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return slept
	}
	a, b, c := run(100), run(100), run(200)
	if len(a) != 4 {
		t.Fatalf("slept %d times, want 4", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different backoff at %d: %v vs %v", i, a[i], b[i])
		}
	}
	same := true
	for i := range a {
		if i < len(c) && a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical jitter")
	}
	// Envelope: attempt k's nominal delay is Base·2^(k-1) capped at Max,
	// jittered into [nominal/2, nominal).
	for i, d := range a {
		nominal := time.Millisecond << i
		if nominal > 4*time.Millisecond {
			nominal = 4 * time.Millisecond
		}
		if d < nominal/2 || d >= nominal {
			t.Errorf("backoff %d = %v outside [%v, %v)", i, d, nominal/2, nominal)
		}
	}
}

// TestSupervisePhaseDeadline: a clock that outruns the deadline fails
// every attempt; the run exhausts its attempts without converging and
// reports the deadline as the reason.
func TestSupervisePhaseDeadline(t *testing.T) {
	var now time.Time
	clock := func() time.Time {
		now = now.Add(10 * time.Millisecond)
		return now
	}
	db := crashedDB(t, allMethods()["physiological"], 19, 8)
	res, err := Supervise(db, Options{
		Seed:          1,
		Sleep:         noSleep,
		Clock:         clock,
		PhaseDeadline: 5 * time.Millisecond,
		MaxAttempts:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("converged despite an impossible deadline")
	}
	if len(res.Attempts) != 3 {
		t.Fatalf("attempts = %d", len(res.Attempts))
	}
	for _, a := range res.Attempts {
		if a.Err != errDeadline.Error() {
			t.Errorf("attempt %d failed with %q, want deadline", a.Index, a.Err)
		}
	}
}

// TestSuperviseMediaFaultEscalatesStraightToDegraded: a torn multi-page
// group (media damage planted under grouplsn) panics the redo test; the
// supervisor converts the panic to media evidence and jumps the ladder
// straight to the degraded rung, which repairs and converges.
func TestSuperviseMediaFaultEscalatesStraightToDegraded(t *testing.T) {
	ps := pagesN(4)
	db := method.NewGroupLSN(initialState(ps))
	for i := 1; i <= 6; i++ {
		op := model.ReadWrite(model.OpID(i), "grp", nil, []model.Var{ps[0], ps[1]})
		if err := db.Exec(op); err != nil {
			t.Fatal(err)
		}
	}
	db.FlushLog()
	db.Crash()
	// Plant the damage: install one page of a two-page group directly,
	// leaving its sibling behind — exactly the torn state the group
	// redo test's panic guards against.
	db.Store().Write(ps[0], model.Value("torn"), db.StableLog().Records()[3].LSN)

	res, err := Supervise(db, Options{Seed: 2, Sleep: noSleep, MaxAttempts: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res.Attempts)
	}
	if res.Rung != RungDegraded {
		t.Fatalf("finished on %s, want degraded", res.Rung)
	}
	// The jump was direct: no attempt ran on the sequential rung.
	for _, a := range res.Attempts {
		if a.Rung == RungSequential {
			t.Errorf("attempt %d ran on the sequential rung; media evidence should jump straight to degraded", a.Index)
		}
	}
	if !res.State.Equal(oracle(db)) {
		t.Error("state diverges from oracle")
	}
}

// TestSuperviseTelemetry: the attempt counters, progress gauge, backoff
// histogram samples, and ladder events land in the recorder.
func TestSuperviseTelemetry(t *testing.T) {
	rec := obs.New()
	sink := &obs.MemorySink{}
	rec.SetSink(sink)
	db := crashedDB(t, allMethods()["physiological"], 29, 10)
	res, err := Supervise(db, Options{
		Seed:          4,
		Sleep:         noSleep,
		Crashes:       CrashPlan{Points: []int{1, 0, 0}},
		ProgressEvery: 1,
		EscalateAfter: 2,
		Recorder:      rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res.Attempts)
	}
	if got := rec.Snapshot().Counter(obs.MSupAttempts); got != int64(len(res.Attempts)) {
		t.Errorf("attempts counter = %d, want %d", got, len(res.Attempts))
	}
	if got := rec.Snapshot().Counter(obs.MSupCrashes); got != int64(res.CrashesInjected) {
		t.Errorf("crash counter = %d, want %d", got, res.CrashesInjected)
	}
	if got := rec.Snapshot().Counter(obs.MSupInstalls); got != int64(res.TotalInstalls) {
		t.Errorf("installs counter = %d, want %d", got, res.TotalInstalls)
	}
	if got := rec.Snapshot().Counter(obs.MSupConverged); got != 1 {
		t.Errorf("converged counter = %d", got)
	}
	if got := rec.Snapshot().Counter(obs.MSupEscalations); got != int64(res.Escalations) {
		t.Errorf("escalations counter = %d, want %d", got, res.Escalations)
	}
	var attempts, rungs int
	for _, e := range sink.Events() {
		switch e.Type {
		case obs.EvAttempt:
			attempts++
		case obs.EvRung:
			rungs++
		}
	}
	if attempts != len(res.Attempts) {
		t.Errorf("attempt events = %d, want %d", attempts, len(res.Attempts))
	}
	if rungs != res.Escalations {
		t.Errorf("rung events = %d, want %d", rungs, res.Escalations)
	}
	snap := rec.Snapshot()
	if _, ok := snap.Durations[obs.MSupBackoff]; !ok {
		t.Error("backoff histogram missing from snapshot")
	}
}

// TestSuperviseExhaustion: attempts run out (every one crashed) —
// Converged=false, no error, and the last rung is reported.
func TestSuperviseExhaustion(t *testing.T) {
	db := crashedDB(t, allMethods()["physiological"], 37, 8)
	res, err := Supervise(db, Options{
		Seed:        1,
		Sleep:       noSleep,
		Crashes:     CrashPlan{Points: []int{0, 0, 0, 0}},
		MaxAttempts: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("converged with every attempt crashed")
	}
	if res.Rung != RungDegraded {
		t.Errorf("last rung = %s, want degraded after repeated failures", res.Rung)
	}
}

// TestSuperviseFlightDumpOnTerminalFailure: a run that exhausts its
// attempt budget must dump the flight recorder — final ring plus one
// preserved snapshot per failed attempt, each labeled with the attempt
// and rung — into the result, and the dump must validate.
func TestSuperviseFlightDumpOnTerminalFailure(t *testing.T) {
	db := crashedDB(t, allMethods()["physiological"], 37, 8)
	flight := obs.NewFlightRecorder(256)
	res, err := Supervise(db, Options{
		Seed:        1,
		Sleep:       noSleep,
		Crashes:     CrashPlan{Points: []int{0, 0, 0, 0}},
		MaxAttempts: 4,
		Recorder:    obs.New(),
		Flight:      flight,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("converged with every attempt crashed")
	}
	if res.Flight == nil {
		t.Fatal("terminal failure left no flight dump")
	}
	if err := res.Flight.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(res.Flight.Events) == 0 {
		t.Fatal("flight dump ring is empty")
	}
	if got := len(res.Flight.Snapshots); got != 4 {
		t.Fatalf("%d crash snapshots, want one per failed attempt (4)", got)
	}
	for i, s := range res.Flight.Snapshots {
		if s.Label == "" || len(s.Events) == 0 {
			t.Fatalf("snapshot %d is unlabeled or empty: %+v", i, s)
		}
	}
}

// TestSuperviseFlightNotDumpedOnConvergence: a converged run keeps its
// recorder attached for the campaign but produces no terminal dump.
func TestSuperviseFlightNotDumpedOnConvergence(t *testing.T) {
	db := crashedDB(t, allMethods()["physiological"], 5, 8)
	res, err := Supervise(db, Options{
		Seed:     1,
		Sleep:    noSleep,
		Recorder: obs.New(),
		Flight:   obs.NewFlightRecorder(256),
	})
	if err != nil || !res.Converged {
		t.Fatalf("converged=%v err=%v", res.Converged, err)
	}
	if res.Flight != nil {
		t.Fatal("converged run produced a terminal flight dump")
	}
}

// TestSuperviseSpanTree: a supervised recovery with one nested crash
// traces as a well-formed tree — a trace-begin, a supervise root, one
// attempt span per attempt, and install batches under the attempts.
func TestSuperviseSpanTree(t *testing.T) {
	db := crashedDB(t, allMethods()["physiological"], 5, 8)
	rec := obs.New()
	sink := &obs.MemorySink{}
	rec.SetSink(sink)
	res, err := Supervise(db, Options{
		Seed:          1,
		Sleep:         noSleep,
		Crashes:       CrashPlan{Points: []int{1}},
		MaxAttempts:   6,
		ProgressEvery: 2,
		Recorder:      rec,
	})
	rec.SetSink(nil)
	if err != nil || !res.Converged {
		t.Fatalf("converged=%v err=%v", res.Converged, err)
	}
	events := sink.Events()
	if events[0].Type != obs.EvTraceBegin {
		t.Fatalf("stream opens with %s, want %s", events[0].Type, obs.EvTraceBegin)
	}
	if err := obs.CheckSpanNesting(events); err != nil {
		t.Fatal(err)
	}
	var supervised, attempts, batches int
	var rootID uint64
	for _, e := range events {
		if e.Type != obs.EvSpanBegin || e.Span == 0 {
			continue
		}
		switch e.Phase {
		case obs.PhaseSupervise:
			supervised++
			rootID = e.Span
		case obs.PhaseAttempt:
			attempts++
			if e.Parent != rootID {
				t.Fatalf("attempt span %d parented under %d, want supervise root %d", e.Span, e.Parent, rootID)
			}
			if e.Comp == "" {
				t.Fatalf("attempt span %d carries no attempt/rung label", e.Span)
			}
		case obs.PhaseInstall:
			batches++
		}
	}
	if supervised != 1 {
		t.Fatalf("%d supervise roots, want 1", supervised)
	}
	if attempts != len(res.Attempts) {
		t.Fatalf("%d attempt spans, result records %d attempts", attempts, len(res.Attempts))
	}
	if attempts < 2 {
		t.Fatalf("%d attempts, want ≥2 (one crashed, one converging)", attempts)
	}
	if batches == 0 {
		t.Fatal("no install-batch spans under the attempts")
	}
}

// countingDPT is physiological+dpt with an Analyze that counts its
// invocations.
type countingDPT struct {
	*method.PhysiologicalDPT
	calls int
}

func (c *countingDPT) Analyze() core.AnalyzeFunc {
	inner := c.PhysiologicalDPT.Analyze()
	return func(s *model.State, l *core.Log, ck graph.Set[model.OpID]) core.Analysis {
		c.calls++
		return inner(s, l, ck)
	}
}

// TestSuperviseAnalysisOncePerAttempt: the analysis phase is run-once
// per recovery procedure, however many records the attempt examines —
// each supervised attempt on the sequential rung invokes it once for its
// installing pass and once for the progress measure's hypothetical
// recovery, including attempts a nested crash cuts short.
func TestSuperviseAnalysisOncePerAttempt(t *testing.T) {
	db := &countingDPT{PhysiologicalDPT: crashedDB(t, allMethods()["physiological+dpt"], 23, 40).(*method.PhysiologicalDPT)}
	want := oracle(db)
	res, err := Supervise(db, Options{
		Seed:          1,
		Sleep:         noSleep,
		StartRung:     RungSequential,
		SkipAudit:     true,
		Crashes:       CrashPlan{Points: []int{2, 0}},
		EscalateAfter: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || len(res.Attempts) != 3 || !res.State.Equal(want) {
		t.Fatalf("converged=%v attempts=%d", res.Converged, len(res.Attempts))
	}
	if db.calls != 2*len(res.Attempts) {
		t.Errorf("analysis calls = %d over %d attempts, want %d", db.calls, len(res.Attempts), 2*len(res.Attempts))
	}
}
