package method

import (
	"math/rand"
	"testing"
	"testing/quick"

	"redotheory/internal/core"
	"redotheory/internal/model"
)

// TestRecoverInstallingCompletes: a full restart-installing recovery
// reaches the oracle state and persists it.
func TestRecoverInstallingCompletes(t *testing.T) {
	ps := pages(3)
	s0 := initialState(ps)
	db := NewPhysiological(s0)
	for i := 1; i <= 8; i++ {
		if err := db.Exec(singlePageOp(model.OpID(i), ps[(i-1)%3])); err != nil {
			t.Fatal(err)
		}
	}
	db.FlushLog()
	db.Crash()
	n, done, err := recoverInstalling(db, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !done || n != 8 {
		t.Fatalf("redone=%d done=%v", n, done)
	}
	if !db.StableState().Equal(oracle(db, s0)) {
		t.Error("installed recovery state diverges from oracle")
	}
	// A second recovery finds nothing to do: everything is installed.
	n2, done2, err := recoverInstalling(db, -1)
	if err != nil || !done2 || n2 != 0 {
		t.Errorf("second recovery redid %d ops (err=%v)", n2, err)
	}
}

// crashingRecoveryToFixpoint repeatedly runs restart-installing recovery
// with random early crashes until one run completes, auditing the
// Recovery Invariant at every intermediate crash, and returns the final
// stable state.
func crashingRecoveryToFixpoint(t testing.TB, db Installer, initial *model.State, rng *rand.Rand) *model.State {
	t.Helper()
	for attempt := 0; attempt < 200; attempt++ {
		// Crash after a few redos; the allowance grows so even methods
		// that restart replay from the top (physical: no LSN test) reach
		// a run that completes.
		stop := rng.Intn(4) + attempt
		_, done, err := recoverInstalling(db, stop)
		if err != nil {
			t.Fatalf("%s: restart recovery: %v", db.Name(), err)
		}
		// Audit the invariant at the intermediate crash state.
		checker, err := core.NewChecker(db.StableLog(), initial)
		if err != nil {
			t.Fatal(err)
		}
		rep := checker.Check(db.StableState(), db.StableLog(), db.Checkpointed(), db.RedoTest(), db.Analyze(), false)
		if !rep.OK {
			t.Fatalf("%s: invariant violated mid-recovery: %s", db.Name(), rep.Summary())
		}
		if done {
			return db.StableState()
		}
	}
	t.Fatalf("%s: recovery never completed", db.Name())
	return nil
}

func TestCrashDuringRecoveryProperty(t *testing.T) {
	// Crash during recovery, restart, repeat: the fixed point must be the
	// oracle state, and the invariant must hold at every intermediate
	// crash, for all restart-installing methods.
	mks := map[string]func(*model.State) Installer{
		"physiological": func(s *model.State) Installer { return NewPhysiological(s) },
		"physical":      func(s *model.State) Installer { return NewPhysical(s) },
		"genlsn":        func(s *model.State) Installer { return NewGenLSN(s) },
	}
	shapes := map[string]func(model.OpID, *rand.Rand, []model.Var) *model.Op{
		"physiological": singlePageMk,
		"physical":      anyShapeMk,
		"genlsn":        readManyWriteOneMk,
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for name, mk := range mks {
			ps := pages(4)
			s0 := initialState(ps)
			db := mk(s0)
			n := 5 + rng.Intn(15)
			for i := 1; i <= n; i++ {
				if err := db.Exec(shapes[name](model.OpID(i*10), rng, ps)); err != nil {
					return false
				}
				switch rng.Intn(5) {
				case 0:
					db.FlushOne()
				case 1:
					db.FlushLog()
				case 2:
					if err := db.Checkpoint(); err != nil {
						return false
					}
				}
			}
			db.Crash()
			final := crashingRecoveryToFixpoint(t, db, s0, rng)
			if !final.Equal(oracle(db, s0)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestLogicalRecoveryIsRepeatable(t *testing.T) {
	// Logical recovery keeps its work volatile: running it twice from the
	// same survivors gives the same state (a recovery crash just means
	// starting over from the checkpointed stable state).
	ps := pages(3)
	s0 := initialState(ps)
	db := NewLogical(s0)
	for i := 1; i <= 6; i++ {
		if err := db.Exec(anyShapeMk(model.OpID(i), rand.New(rand.NewSource(int64(i))), ps)); err != nil {
			t.Fatal(err)
		}
		if i == 3 {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	db.FlushLog()
	db.Crash()
	r1, err := Recover(db)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Recover(db)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.State.Equal(r2.State) {
		t.Error("logical recovery is not repeatable")
	}
	if !r1.State.Equal(oracle(db, s0)) {
		t.Error("state wrong")
	}
	// And the stable state was never touched by recovery.
	if !db.StableState().Equal(mustCheckpointState(t, db, s0)) {
		t.Error("logical recovery mutated the stable state")
	}
}

// TestRecoverInstallingStopAfterZero: stopAfter=0 is the degenerate
// crash — recovery dies before its first install. Nothing changes, and
// the untouched crash state still satisfies the Recovery Invariant.
func TestRecoverInstallingStopAfterZero(t *testing.T) {
	ps := pages(3)
	s0 := initialState(ps)
	db := NewPhysiological(s0)
	for i := 1; i <= 5; i++ {
		if err := db.Exec(singlePageOp(model.OpID(i), ps[(i-1)%3])); err != nil {
			t.Fatal(err)
		}
	}
	db.FlushLog()
	db.Crash()
	before := db.StableState()
	n, done, err := recoverInstalling(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || done {
		t.Fatalf("redone=%d done=%v, want 0,false", n, done)
	}
	if !db.StableState().Equal(before) {
		t.Error("stopAfter=0 recovery mutated the stable state")
	}
	checker, err := core.NewChecker(db.StableLog(), s0)
	if err != nil {
		t.Fatal(err)
	}
	rep := checker.Check(db.StableState(), db.StableLog(), db.Checkpointed(), db.RedoTest(), db.Analyze(), false)
	if !rep.OK {
		t.Fatalf("invariant violated at the zero-install crash: %s", rep.Summary())
	}
	// And an empty log's recovery is already done at stopAfter=0.
	empty := NewPhysiological(s0)
	empty.Crash()
	if n, done, err := recoverInstalling(empty, 0); err != nil || n != 0 || !done {
		t.Errorf("empty log: redone=%d done=%v err=%v", n, done, err)
	}
}

// TestRecoverInstallingEveryIndex crashes restart recovery at *every*
// redo index — each attempt installs exactly one operation and dies —
// and audits the Corollary-4 invariant at each intermediate state. The
// LSN-family methods must make one install of progress per attempt, so
// the fixed point arrives in exactly as many attempts as there are
// records to redo. (Physical recovery is excluded: its always-true redo
// test restarts replay from the top, so a one-install allowance never
// advances; the growing-allowance property test above covers it.)
func TestRecoverInstallingEveryIndex(t *testing.T) {
	mks := map[string]struct {
		mk    func(*model.State) Installer
		shape func(model.OpID, *rand.Rand, []model.Var) *model.Op
	}{
		"physiological":     {func(s *model.State) Installer { return NewPhysiological(s) }, singlePageMk},
		"physiological+dpt": {func(s *model.State) Installer { return NewPhysiologicalDPT(s) }, singlePageMk},
		"genlsn":            {func(s *model.State) Installer { return NewGenLSN(s) }, readManyWriteOneMk},
		"genlsn+mv":         {func(s *model.State) Installer { return NewGenLSNMV(s) }, readManyWriteOneMk},
	}
	for name, mc := range mks {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(77))
			ps := pages(4)
			s0 := initialState(ps)
			db := mc.mk(s0)
			n := 12
			for i := 1; i <= n; i++ {
				if err := db.Exec(mc.shape(model.OpID(i*10), rng, ps)); err != nil {
					t.Fatal(err)
				}
				if rng.Intn(4) == 0 {
					db.FlushOne()
				}
			}
			db.FlushLog()
			db.Crash()
			attempts := 0
			for ; attempts <= n+1; attempts++ {
				redone, done, err := recoverInstalling(db, 1)
				if err != nil {
					t.Fatal(err)
				}
				checker, err := core.NewChecker(db.StableLog(), s0)
				if err != nil {
					t.Fatal(err)
				}
				rep := checker.Check(db.StableState(), db.StableLog(), db.Checkpointed(), db.RedoTest(), db.Analyze(), false)
				if !rep.OK {
					t.Fatalf("invariant violated after crash at index %d: %s", attempts, rep.Summary())
				}
				if done {
					break
				}
				if redone != 1 {
					t.Fatalf("attempt %d redid %d ops before its crash, want exactly 1", attempts, redone)
				}
			}
			if attempts > n {
				t.Fatalf("fixed point not reached after %d one-install attempts", attempts)
			}
			if !db.StableState().Equal(oracle(db, s0)) {
				t.Error("fixed point diverges from oracle")
			}
		})
	}
	// The stop rule is "before the next redo": records the redo test
	// skips are not remaining work, so an attempt whose allowance runs
	// out with only installed records left on the log has finished.
	t.Run("trailing-skipped", func(t *testing.T) {
		ps := pages(3)
		s0 := initialState(ps)
		db := NewPhysiological(s0)
		for i, p := range ps {
			if err := db.Exec(singlePageOp(model.OpID(i+1), p)); err != nil {
				t.Fatal(err)
			}
		}
		// Only the last record's page is installed before the crash.
		if err := db.FlushPage(ps[2]); err != nil {
			t.Fatal(err)
		}
		db.FlushLog()
		db.Crash()
		for attempt, wantDone := range []bool{false, true} {
			redone, done, err := recoverInstalling(db, 1)
			if err != nil || redone != 1 || done != wantDone {
				t.Fatalf("attempt %d: redone=%d done=%v err=%v, want 1 redo and done=%v", attempt, redone, done, err, wantDone)
			}
		}
		if !db.StableState().Equal(oracle(db, s0)) {
			t.Error("fixed point diverges from oracle")
		}
	})
}

// flakyInstaller wraps an Installer with a transiently failing
// installPage: the first `budget` installs are silently lost (the write
// never reaches stable storage). For page-LSN recovery a lost install
// is indistinguishable from a crash just before it — the page keeps its
// old LSN, the next recovery re-admits the operation, and the volatile
// replay state (which did apply the operation) means any later install
// of the same page carries the composed, correct value.
type flakyInstaller struct {
	Installer
	budget int
	rng    *rand.Rand
}

func (f *flakyInstaller) installPage(x model.Var, v model.Value, lsn core.LSN) {
	if f.budget > 0 && f.rng.Intn(2) == 0 {
		f.budget--
		return // dropped on the floor
	}
	f.Installer.installPage(x, v, lsn)
}

// TestRecoverInstallingFlakyInstaller: restart recovery through a lossy
// installer still converges to the oracle, with the invariant holding
// at every intermediate crash. Only single-page methods are exercised:
// silently dropping one install from a multi-page-read method (genlsn)
// can break careful write ordering — a later operation's page lands
// while the page it read stays stale — which is exactly why the
// supervisor aborts whole attempts on transient faults instead of
// dropping writes (see internal/supervise).
func TestRecoverInstallingFlakyInstaller(t *testing.T) {
	for name, mk := range map[string]func(*model.State) Installer{
		"physiological": func(s *model.State) Installer { return NewPhysiological(s) },
		"physical":      func(s *model.State) Installer { return NewPhysical(s) },
	} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(55))
			ps := pages(3)
			s0 := initialState(ps)
			db := mk(s0)
			shape := singlePageMk
			if name == "physical" {
				shape = anyShapeMk
			}
			for i := 1; i <= 10; i++ {
				if err := db.Exec(shape(model.OpID(i*10), rng, ps)); err != nil {
					t.Fatal(err)
				}
			}
			db.FlushLog()
			db.Crash()
			flaky := &flakyInstaller{Installer: db, budget: 6, rng: rng}
			final := crashingRecoveryToFixpoint(t, flaky, s0, rng)
			if !final.Equal(oracle(db, s0)) {
				t.Error("flaky-installer fixed point diverges from oracle")
			}
		})
	}
}

// mustCheckpointState recomputes what the stable state should be: the
// initial state plus every checkpoint-covered operation.
func mustCheckpointState(t *testing.T, db DB, s0 *model.State) *model.State {
	t.Helper()
	s := s0.Clone()
	ck := db.Checkpointed()
	for _, op := range db.StableLog().Ops() {
		if ck.Has(op.ID()) {
			mustApply(s, op)
		}
	}
	return s
}
