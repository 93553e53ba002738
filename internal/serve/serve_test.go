package serve

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"redotheory/internal/core"
	"redotheory/internal/method"
	"redotheory/internal/model"
	"redotheory/internal/obs"
	"redotheory/internal/sim"
	"redotheory/internal/workload"
)

// crashed builds a freshly crashed DB for the named method over the
// given history. Identical arguments build identical crash states, so
// calling it twice yields an offline/online comparison pair.
func crashed(t *testing.T, nf sim.NamedFactory, pages []model.Var, ops []*model.Op, crash int, s sim.Sched) method.DB {
	t.Helper()
	db, err := sim.BuildCrashed(nf.New, workload.InitialState(pages), ops, crash, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestMatchesSequentialAcrossMethods is the core equivalence claim:
// for every method, every legal workload shape, and several crash
// points, lazily recovering components in a random touch order reaches
// exactly the outcome of sequential offline Recover — and every read
// served along the way already returns the fully-recovered value.
func TestMatchesSequentialAcrossMethods(t *testing.T) {
	pages := workload.Pages(8)
	for _, nf := range sim.DefaultMethods() {
		shapes, err := workload.ShapesFor(nf.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range shapes {
			ops := sh.Gen(16, pages, 42)
			for _, crash := range []int{0, len(ops) / 2, len(ops)} {
				sched := sim.Sched{Seed: 7, FlushProb: 0.3, ForceProb: 0.5}
				seq, err := method.Recover(crashed(t, nf, pages, ops, crash, sched))
				if err != nil {
					t.Fatalf("%s/%s@%d: sequential: %v", nf.Name, sh.Name, crash, err)
				}
				eng, err := New(crashed(t, nf, pages, ops, crash, sched), Options{})
				if err != nil {
					t.Fatalf("%s/%s@%d: engine: %v", nf.Name, sh.Name, crash, err)
				}
				rng := rand.New(rand.NewSource(int64(crash) + 13))
				order := rng.Perm(len(pages))
				for _, pi := range order {
					p := pages[pi]
					v, err := eng.Read(p)
					if err != nil {
						t.Fatalf("%s/%s@%d: read %s: %v", nf.Name, sh.Name, crash, p, err)
					}
					// No post-crash writes: a served read must already equal
					// the final recovered value.
					if want := seq.State.Get(p); v != want {
						t.Fatalf("%s/%s@%d: read %s = %q before drain, sequential recovery has %q",
							nf.Name, sh.Name, crash, p, v, want)
					}
				}
				if err := eng.Drain(); err != nil {
					t.Fatalf("%s/%s@%d: drain: %v", nf.Name, sh.Name, crash, err)
				}
				res, err := eng.Result()
				if err != nil {
					t.Fatalf("%s/%s@%d: result: %v", nf.Name, sh.Name, crash, err)
				}
				if err := res.SameOutcome(seq); err != nil {
					t.Fatalf("%s/%s@%d: %v", nf.Name, sh.Name, crash, err)
				}
			}
		}
	}
}

// checkDerivedSets asserts that a Result's set views are what its
// Replayed list and scanned log say: RedoSet is the set of Replayed,
// and RedoSet and Installed partition operations(log).
func checkDerivedSets(t *testing.T, what string, res *core.Result, log *core.Log) {
	t.Helper()
	redo, inst, ops := res.RedoSet(), res.Installed(), log.Operations()
	if len(redo) != len(res.Replayed) {
		t.Fatalf("%s: RedoSet has %d ids, Replayed lists %d", what, len(redo), len(res.Replayed))
	}
	for _, id := range res.Replayed {
		if !redo.Has(id) {
			t.Fatalf("%s: replayed op %d missing from RedoSet", what, id)
		}
		if inst.Has(id) {
			t.Fatalf("%s: op %d is in both RedoSet and Installed", what, id)
		}
	}
	if len(redo)+len(inst) != len(ops) {
		t.Fatalf("%s: |RedoSet|=%d + |Installed|=%d != |operations(log)|=%d", what, len(redo), len(inst), len(ops))
	}
	for id := range ops {
		if !redo.Has(id) && !inst.Has(id) {
			t.Fatalf("%s: logged op %d is in neither RedoSet nor Installed", what, id)
		}
	}
}

// TestDerivedSetsAcrossEngines runs TestDenseRecoverMatchesMapRecover's
// grid (7 methods × ShapesFor × crash points) through all four recovery
// engines — the map reference core.Recover, dense method.Recover,
// RecoverParallel, and a drained serve engine. Each reports RedoSet and
// Installed as views derived from Replayed and the scanned log; every
// view must partition the log's operations, and all engines must agree
// with the map reference.
func TestDerivedSetsAcrossEngines(t *testing.T) {
	pages := workload.Pages(5)
	for _, nf := range sim.DefaultMethods() {
		shapes, err := workload.ShapesFor(nf.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range shapes {
			for seed := int64(1); seed <= 2; seed++ {
				ops := sh.Gen(18, pages, seed)
				for crash := 0; crash <= len(ops); crash += 2 + int(seed) {
					sched := sim.Sched{Seed: seed*37 + int64(crash), FlushProb: 0.3, ForceProb: 0.2, CheckpointProb: 0.1}
					db := crashed(t, nf, pages, ops, crash, sched)
					log := db.StableLog()
					at := fmt.Sprintf("%s/%s seed=%d crash=%d", nf.Name, sh.Name, seed, crash)

					ref, err := core.Recover(db.StableState(), log, db.Checkpointed(), db.RedoTest(), db.Analyze())
					if err != nil {
						t.Fatalf("%s: core.Recover: %v", at, err)
					}
					checkDerivedSets(t, at+" core.Recover", ref, log)

					engines := map[string]func() (*core.Result, error){
						"method.Recover": func() (*core.Result, error) { return method.Recover(db) },
						"RecoverParallel": func() (*core.Result, error) {
							pr, err := method.RecoverParallel(db, method.ParallelOptions{Workers: 4})
							if err != nil {
								return nil, err
							}
							return pr.Result, nil
						},
						"serve": func() (*core.Result, error) {
							eng, err := New(db, Options{})
							if err != nil {
								return nil, err
							}
							if err := eng.Drain(); err != nil {
								return nil, err
							}
							return eng.Result()
						},
					}
					for name, run := range engines {
						res, err := run()
						if err != nil {
							t.Fatalf("%s: %s: %v", at, name, err)
						}
						checkDerivedSets(t, at+" "+name, res, log)
						if err := res.SameOutcome(ref); err != nil {
							t.Fatalf("%s: %s diverged from the map reference: %v", at, name, err)
						}
					}
				}
			}
		}
	}
}

// TestMixedTrafficMatchesReference interleaves reads and post-crash
// writes: every mid-stream read must equal a reference that applies
// the same writes, in commit order, on top of the offline recovery
// outcome — and so must the final drained state.
func TestMixedTrafficMatchesReference(t *testing.T) {
	pages := workload.Pages(8)
	for _, nf := range sim.DefaultMethods() {
		ops, err := workload.ForMethod(nf.Name, 16, pages, 99)
		if err != nil {
			t.Fatal(err)
		}
		sched := sim.Sched{Seed: 3, FlushProb: 0.4, ForceProb: 0.6}
		seq, err := method.Recover(crashed(t, nf, pages, ops, len(ops)-2, sched))
		if err != nil {
			t.Fatal(err)
		}
		ref := seq.State.Clone()
		eng, err := New(crashed(t, nf, pages, ops, len(ops)-2, sched), Options{})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		nextID := model.OpID(len(ops) + 1)
		for i := 0; i < 24; i++ {
			p := pages[rng.Intn(len(pages))]
			if i%3 == 2 {
				op := model.ReadWrite(nextID, "post", []model.Var{p}, []model.Var{p})
				nextID++
				if err := eng.Exec(op); err != nil {
					t.Fatalf("%s: exec %s: %v", nf.Name, op, err)
				}
				if _, err := ref.Apply(op); err != nil {
					t.Fatal(err)
				}
			} else {
				v, err := eng.Read(p)
				if err != nil {
					t.Fatalf("%s: read %s: %v", nf.Name, p, err)
				}
				if want := ref.Get(p); v != want {
					t.Fatalf("%s: mid-stream read %s = %q, reference has %q", nf.Name, p, v, want)
				}
			}
		}
		if err := eng.Drain(); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Result()
		if err != nil {
			t.Fatal(err)
		}
		if !res.State.Equal(ref) {
			t.Fatalf("%s: drained state diverges from reference on %v", nf.Name, res.State.Diff(ref))
		}
		if got := len(eng.Commits()); got != 8 {
			t.Fatalf("%s: %d commits recorded, want 8", nf.Name, got)
		}
	}
}

// TestDuplicateExecRejected pins the WAL idempotence guard: committing
// the same operation id twice must fail the second time.
func TestDuplicateExecRejected(t *testing.T) {
	pages := workload.Pages(4)
	nf := sim.DefaultMethods()[2] // physiological
	ops := workload.SinglePage(8, pages, 1, false)
	eng, err := New(crashed(t, nf, pages, ops, len(ops), sim.Sched{Seed: 1, ForceOnCrash: true}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	op := model.ReadWrite(model.OpID(len(ops)+1), "post", []model.Var{pages[0]}, []model.Var{pages[0]})
	if err := eng.Exec(op); err != nil {
		t.Fatal(err)
	}
	if err := eng.Exec(op); err == nil {
		t.Fatal("re-executing a committed operation id did not error")
	}
}

// TestWALContinuationSurvivesSecondCrash: with the crashed DB's own WAL
// passed in, post-crash commits are ordinary log records — a second
// recovery over the same DB replays them and lands exactly on the
// engine's served state.
func TestWALContinuationSurvivesSecondCrash(t *testing.T) {
	pages := workload.Pages(6)
	nf := sim.DefaultMethods()[2] // physiological
	ops := workload.SinglePage(12, pages, 4, false)
	db := crashed(t, nf, pages, ops, len(ops), sim.Sched{Seed: 2, FlushProb: 0.3, ForceOnCrash: true})
	eng, err := New(db, Options{WAL: db.WAL()})
	if err != nil {
		t.Fatal(err)
	}
	var posts []*model.Op
	for i := 0; i < 4; i++ {
		p := pages[i%len(pages)]
		op := model.ReadWrite(model.OpID(len(ops)+1+i), "post", []model.Var{p}, []model.Var{p})
		if err := eng.Exec(op); err != nil {
			t.Fatal(err)
		}
		posts = append(posts, op)
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Result()
	if err != nil {
		t.Fatal(err)
	}
	// Crash again: the engine's WAL appends were flushed, so a fresh
	// offline recovery sees them as ordinary records needing redo.
	again, err := method.Recover(db)
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	if !again.State.Equal(res.State) {
		t.Fatalf("second recovery diverges from served state on %v", again.State.Diff(res.State))
	}
	for _, op := range posts {
		if !again.RedoSet().Has(op.ID()) && !again.Installed().Has(op.ID()) {
			t.Fatalf("post-crash op %s neither redone nor installed by the second recovery", op)
		}
	}
}

// TestConcurrentTouchesRedoOnce is the -race exactly-once check: many
// goroutines hammering the same unrecovered pages must replay each
// component exactly once, and every read must see the recovered value.
func TestConcurrentTouchesRedoOnce(t *testing.T) {
	pages := workload.Pages(16)
	nf := sim.DefaultMethods()[2] // physiological
	ops := workload.SinglePage(64, pages, 8, false)
	sched := sim.Sched{Seed: 9, ForceOnCrash: true}
	seq, err := method.Recover(crashed(t, nf, pages, ops, len(ops), sched))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(crashed(t, nf, pages, ops, len(ops), sched), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 50; i++ {
				p := pages[rng.Intn(len(pages))]
				v, err := eng.Read(p)
				if err != nil {
					errs[g] = err
					return
				}
				if want := seq.State.Get(p); v != want {
					errs[g] = errReadMismatch(p, v, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	for ci := range eng.comps {
		if n := eng.comps[ci].redone.Load(); n != 1 {
			t.Fatalf("component %d replayed %d times, want exactly once", ci, n)
		}
	}
	res, err := eng.Result()
	if err != nil {
		t.Fatal(err)
	}
	if err := res.SameOutcome(seq); err != nil {
		t.Fatal(err)
	}
}

type errReadMismatchT struct {
	p         model.Var
	got, want model.Value
}

func (e errReadMismatchT) Error() string {
	return "read " + string(e.p) + " = " + string(e.got) + ", recovered value is " + string(e.want)
}

func errReadMismatch(p model.Var, got, want model.Value) error {
	return errReadMismatchT{p, got, want}
}

// TestSweeperAndClientsNeverDeadlock runs the sweeper, concurrent
// mixed-traffic clients, and an inline Drain against each other; the
// engine must reach full recovery promptly and agree with sequential
// recovery plus the committed writes.
func TestSweeperAndClientsNeverDeadlock(t *testing.T) {
	pages := workload.Pages(12)
	nf := sim.DefaultMethods()[2] // physiological
	ops := workload.SinglePage(48, pages, 11, false)
	sched := sim.Sched{Seed: 4, ForceOnCrash: true}
	eng, err := New(crashed(t, nf, pages, ops, len(ops), sched), Options{Sweeper: true})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			nextID := model.OpID(len(ops) + 1 + g*100)
			for i := 0; i < 40; i++ {
				p := pages[rng.Intn(len(pages))]
				if i%5 == 4 {
					op := model.ReadWrite(nextID, "post", []model.Var{p}, []model.Var{p})
					nextID++
					_ = eng.Exec(op)
				} else {
					_, _ = eng.Read(p)
				}
			}
		}(g)
	}
	drained := make(chan error, 1)
	go func() { drained <- eng.Drain() }()
	wg.Wait()
	select {
	case err := <-drained:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Drain deadlocked against sweeper and clients")
	}
	select {
	case <-eng.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("Done never closed")
	}
	eng.Close()
	if !eng.fullyRecovered() {
		t.Fatal("engine not fully recovered after Done")
	}
	st := eng.Stats()
	if st.Recovered != st.Components {
		t.Fatalf("stats report %d/%d components recovered", st.Recovered, st.Components)
	}
}

// TestResultBeforeFullRecoveryErrors pins that Result refuses to
// materialize a partial recovery.
func TestResultBeforeFullRecoveryErrors(t *testing.T) {
	pages := workload.Pages(6)
	nf := sim.DefaultMethods()[2]
	ops := workload.SinglePage(12, pages, 6, false)
	eng, err := New(crashed(t, nf, pages, ops, len(ops), sim.Sched{Seed: 1, ForceOnCrash: true}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if eng.fullyRecovered() {
		t.Skip("fixture produced no redo debt")
	}
	if _, err := eng.Result(); err == nil {
		t.Fatal("Result succeeded before full recovery")
	}
}

// TestSweepGateWaitCountsOnlyTouches: serve.gate_wait is the time a
// touch spent blocked on the admission gate, so a restart no client
// touches — the sweeper alone runs it to full recovery — observes it
// never.
func TestSweepGateWaitCountsOnlyTouches(t *testing.T) {
	pages := workload.Pages(12)
	nf := sim.DefaultMethods()[2] // physiological
	ops := workload.HotPage(64, pages, 3)
	rec := obs.New()
	eng, err := New(crashed(t, nf, pages, ops, len(ops), sim.Sched{Seed: 3, ForceOnCrash: true}), Options{Recorder: rec, Sweeper: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	select {
	case <-eng.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("sweeper never finished")
	}
	st := eng.Stats()
	if st.Components == 0 || st.Swept != int64(st.Components) || st.Lazy != 0 {
		t.Fatalf("stats %+v: want every component swept and none lazy", st)
	}
	if n := rec.Snapshot().Duration(obs.MServeGateWait).Count; n != 0 {
		t.Fatalf("%s observed %d times with no touch, want 0", obs.MServeGateWait, n)
	}
}

// TestSweepTouchHandoff: a component may be started by the sweep and
// finished by a touch. For every k, sweep exactly the first k admitted
// records, then touch every page (or none) in a seeded random order and
// drain:
// every read must already serve the recovered value, the outcome must
// be sequential Recover's, and every component must have completed
// exactly once with its cursor at its end — each record replayed once,
// in LSN order.
func TestSweepTouchHandoff(t *testing.T) {
	pages := workload.Pages(8)
	for _, nf := range sim.DefaultMethods() {
		switch nf.Name {
		case "physiological", "physiological+dpt", "genlsn":
		default:
			continue
		}
		multi, err := workload.ForMethod(nf.Name, 32, pages, 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []struct {
			name string
			ops  []*model.Op
		}{{"hot-page", workload.HotPage(32, pages, 8)}, {"multi-page", multi}} {
			at := nf.Name + "/" + w.name
			sched := sim.Sched{Seed: 6, FlushProb: 0.2, ForceProb: 0.5, CheckpointProb: 0.05, ForceOnCrash: true}
			db := crashed(t, nf, pages, w.ops, len(w.ops), sched)
			seq, err := method.Recover(db)
			if err != nil {
				t.Fatalf("%s: sequential: %v", at, err)
			}
			handoffs := 0
			for k := 0; k <= len(seq.Replayed); k++ {
				// Touching no page leaves the rest to Drain, whose walk
				// passes the records the sweep already replayed.
				for _, touches := range []int{len(pages), 0} {
					eng, err := New(db, Options{})
					if err != nil {
						t.Fatalf("%s k=%d touches=%d: %v", at, k, touches, err)
					}
					var buf core.ReplayBuf
					seen := make([]int32, len(eng.comps))
					for i := 0; i < k; i++ {
						eng.step(i, seen, &buf)
					}
					for ci := range eng.comps {
						if cur := eng.comps[ci].cursor; cur > 0 && cur < len(eng.plan.Components[ci].Idx) {
							handoffs++
						}
					}
					rng := rand.New(rand.NewSource(int64(k)))
					for _, pi := range rng.Perm(len(pages))[:touches] {
						v, err := eng.Read(pages[pi])
						if err != nil {
							t.Fatalf("%s k=%d touches=%d: read %s: %v", at, k, touches, pages[pi], err)
						}
						if want := seq.State.Get(pages[pi]); v != want {
							t.Fatalf("%s k=%d touches=%d: read %s = %q, sequential recovery has %q", at, k, touches, pages[pi], v, want)
						}
					}
					if err := eng.Drain(); err != nil {
						t.Fatalf("%s k=%d touches=%d: drain: %v", at, k, touches, err)
					}
					res, err := eng.Result()
					if err != nil {
						t.Fatalf("%s k=%d touches=%d: result: %v", at, k, touches, err)
					}
					if err := res.SameOutcome(seq); err != nil {
						t.Fatalf("%s k=%d touches=%d: %v", at, k, touches, err)
					}
					for ci := range eng.comps {
						cs := &eng.comps[ci]
						if n := cs.redone.Load(); n != 1 || cs.cursor != len(eng.plan.Components[ci].Idx) {
							t.Fatalf("%s k=%d touches=%d: component %d completed %d times with cursor %d of %d, want once at its end",
								at, k, touches, ci, n, cs.cursor, len(eng.plan.Components[ci].Idx))
						}
					}
				}
			}
			if handoffs == 0 {
				t.Fatalf("%s: no k left a component half swept; the fixture does not exercise the handoff", at)
			}
		}
	}
}
