package method_test

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"redotheory/internal/core"
	"redotheory/internal/method"
	"redotheory/internal/model"
	"redotheory/internal/obs"
	"redotheory/internal/serve"
	"redotheory/internal/supervise"
)

// replayFailureFixture crashes a physiological DB whose log holds two
// operations that succeeded forward and fail on replay. Nothing was
// flushed, so every record is redone, and the single-page operations
// make one interference component per page:
//
//	a: LSN 4            (healthy)
//	b: LSN 1, flaky#5   (fails at LSN 5)
//	c: LSN 2, flaky#3   (fails at LSN 3)
//
// Component b comes first in plan order, but c holds the smallest
// failing LSN — the one sequential replay hits.
func replayFailureFixture(t *testing.T) method.DB {
	t.Helper()
	return replayFailureLog(t, 0, 0)
}

// replayFailureLog is replayFailureFixture between lead and trail
// healthy operations on page a (ids 101 on), which place the failing
// records among the pipeline's chunks.
func replayFailureLog(t *testing.T, lead, trail int) method.DB {
	t.Helper()
	var failing atomic.Bool
	op := func(id model.OpID, name string, p model.Var) *model.Op {
		return model.NewPosOp(id, name, []model.Var{p}, []model.Var{p}, func(reads, out []model.Value) error {
			if name == "flaky" && failing.Load() {
				return errors.New("boom")
			}
			out[0] = reads[0] + "+"
			return nil
		})
	}
	initial := model.NewState()
	for _, p := range []model.Var{"a", "b", "c"} {
		initial.Set(p, "0")
	}
	db := method.NewPhysiological(initial)
	next := model.OpID(101)
	healthy := func(n int) (out []*model.Op) {
		for ; n > 0; n-- {
			out = append(out, op(next, "ok", "a"))
			next++
		}
		return out
	}
	ops := append(healthy(lead), op(1, "ok", "b"), op(2, "ok", "c"), op(3, "flaky", "c"), op(4, "ok", "a"), op(5, "flaky", "b"))
	ops = append(ops, healthy(trail)...)
	for _, o := range ops {
		if err := db.Exec(o); err != nil {
			t.Fatal(err)
		}
	}
	db.FlushLog()
	db.Crash()
	failing.Store(true)
	return db
}

// noResult describes a result that should have been nil.
func noResult(res *core.Result, err error) (string, error) {
	if res != nil {
		return "a result", err
	}
	return "", err
}

// TestReplayFailure drives every engine over a log whose replay fails:
// each must report the failing operation (the smallest-LSN one, however
// replay was scheduled), return the nil or partial result it documents,
// and close every span it opened.
func TestReplayFailure(t *testing.T) {
	const first = "replaying flaky#3: boom"
	engines := []struct {
		name string
		run  func(db method.DB, rec *obs.Recorder) (partial string, err error)
	}{
		{"core.Recover", func(db method.DB, _ *obs.Recorder) (string, error) {
			return noResult(core.Recover(method.Survivors(db)))
		}},
		{"Recover", func(db method.DB, rec *obs.Recorder) (string, error) {
			return noResult(method.RecoverObserved(db, rec))
		}},
		{"RecoverInstalling", func(db method.DB, rec *obs.Recorder) (string, error) {
			db.SetRecorder(rec)
			redone, done, err := method.RecoverInstalling(db.(method.Installer), -1)
			if redone != 2 || done {
				return "redone/done other than the two records before the failure", err
			}
			return "", err
		}},
		{"RecoverDegraded", func(db method.DB, rec *obs.Recorder) (string, error) {
			db.SetRecorder(rec)
			if !db.Store().CorruptPage("a") {
				return "no page to corrupt", nil
			}
			res, err := method.RecoverDegraded(db, method.RunToCompletion())
			if res != nil || err == nil || !strings.Contains(err.Error(), "degraded replay") {
				return "a result, or a failure outside the conservative replay", err
			}
			return "", err
		}},
		{"Supervise", func(db method.DB, rec *obs.Recorder) (string, error) {
			res, err := supervise.Supervise(db, supervise.Options{Recorder: rec, Sleep: func(time.Duration) {}})
			if res == nil || res.Converged {
				return "no report, or a converged one", err
			}
			return "", err
		}},
	}
	for _, e := range engines {
		e := e
		t.Run(e.name, func(t *testing.T) {
			rec, sink := obs.New(), &obs.MemorySink{}
			rec.SetSink(sink)
			partial, err := e.run(replayFailureFixture(t), rec)
			if err == nil || !strings.Contains(err.Error(), first) {
				t.Errorf("error %v, want it to contain %q", err, first)
			}
			if partial != "" {
				t.Errorf("returned %s", partial)
			}
			if err := obs.CheckSpanNesting(sink.Events()); err != nil {
				t.Errorf("span nesting after the failure: %v", err)
			}
		})
	}

	t.Run("RecoverParallel", func(t *testing.T) {
		db := replayFailureFixture(t)
		for run := 0; run < 50; run++ {
			rec, sink := obs.New(), &obs.MemorySink{}
			rec.SetSink(sink)
			res, err := method.RecoverParallel(db, method.ParallelOptions{Workers: 4, Recorder: rec})
			if res != nil || err == nil || !strings.Contains(err.Error(), first) {
				t.Fatalf("run %d: result %v, error %v, want nil and the smallest-LSN failure %q", run, res, err, first)
			}
			if err := obs.CheckSpanNesting(sink.Events()); err != nil {
				t.Fatalf("run %d: span nesting after the failure: %v", run, err)
			}
		}
	})

	// The pipelined schedule. Behind three chunks of healthy records,
	// the handoff is forced on either side of the failing chunk: they
	// fail in the pipeline's replay, or in the pooled tail after a
	// replayed prefix. Ahead of three chunks, unforced, they most likely
	// fail while the decision is still running, which must stop it.
	// Every case reports the smallest-LSN failure and leaves nothing
	// running.
	const chunks = 3 * 32
	for _, tc := range []struct {
		name                 string
		lead, trail, handoff int
	}{
		{"Pipeline/before-handoff", chunks, 0, 4},
		{"Pipeline/pooled-tail", chunks, 0, 3},
		{"Pipeline/stops-decision", 0, chunks, -1},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			db := replayFailureLog(t, tc.lead, tc.trail)
			if chunk := method.ChunkLen(db.StableLog().Len()); chunks != 3*chunk {
				t.Fatalf("chunks of %d records, want %d", chunk, chunks/3)
			}
			defer method.ForceHandoff(tc.handoff)()
			before := runtime.NumGoroutine()
			for run := 0; run < 20; run++ {
				rec, sink := obs.New(), &obs.MemorySink{}
				rec.SetSink(sink)
				res, err := method.RecoverParallel(db, method.ParallelOptions{Workers: 4, Recorder: rec})
				if res != nil || err == nil || !strings.Contains(err.Error(), first) {
					t.Fatalf("run %d: result %v, error %v, want nil and the smallest-LSN failure %q", run, res, err, first)
				}
				if err := obs.CheckSpanNesting(sink.Events()); err != nil {
					t.Fatalf("run %d: span nesting after the failure: %v", run, err)
				}
			}
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines running after the failed recoveries, %d before", runtime.NumGoroutine(), before)
				}
			}
		})
	}

	t.Run("serve", func(t *testing.T) {
		rec, sink := obs.New(), &obs.MemorySink{}
		rec.SetSink(sink)
		eng, err := serve.New(replayFailureFixture(t), serve.Options{Recorder: rec})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		_, sticky := eng.Read("c")
		if sticky == nil || !strings.Contains(sticky.Error(), first) {
			t.Fatalf("Read(c): error %v, want it to contain %q", sticky, first)
		}
		if _, again := eng.Read("c"); again != sticky {
			t.Errorf("second Read(c): error %v, want the sticky %v", again, sticky)
		}
		if v, err := eng.Read("a"); err != nil || v != "0+" {
			t.Errorf("Read(a) = %q, %v: a healthy component must still serve", v, err)
		}
		if err := eng.Drain(); err == nil || !strings.Contains(err.Error(), first) {
			t.Errorf("Drain error %v, want the smallest-LSN failure %q", err, first)
		}
		if res, err := eng.Result(); res != nil || err == nil || !strings.Contains(err.Error(), first) {
			t.Errorf("Result() = %v, %v, want the smallest-LSN failure %q", res, err, first)
		}
		if err := obs.CheckSpanNesting(sink.Events()); err != nil {
			t.Errorf("span nesting after the failures: %v", err)
		}
	})
}

// panickyRedo is a DB whose redo test panics at one LSN, the way
// grouplsn's does on a partially installed group.
type panickyRedo struct {
	method.DB
	at core.LSN
}

func (d panickyRedo) RedoTest() core.RedoTest {
	inner := d.DB.RedoTest()
	return func(r *core.Record, a core.Analysis) bool {
		if r.LSN == d.at {
			panic("redo test: invariant broken")
		}
		return inner(r, a)
	}
}

// TestPipelineDecisionPanic: a redo test that panics in the middle of
// the decision, after the replayer has been handed chunks, reaches
// RecoverParallel's caller as it did before the pipeline (the supervisor
// turns it into a media fault), and leaves no goroutine behind.
func TestPipelineDecisionPanic(t *testing.T) {
	db := panickyRedo{DB: replayFailureLog(t, 3*32, 0), at: 80}
	before := runtime.NumGoroutine()
	for run := 0; run < 20; run++ {
		func() {
			defer func() {
				if p := recover(); p == nil {
					t.Fatalf("run %d: RecoverParallel returned instead of panicking", run)
				}
			}()
			method.RecoverParallel(db, method.ParallelOptions{Workers: 2})
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines running after the panicking recoveries, %d before", runtime.NumGoroutine(), before)
		}
	}
}
