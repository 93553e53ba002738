package method

import (
	"math/rand"
	"testing"
	"testing/quick"

	"redotheory/internal/core"
	"redotheory/internal/graph"
	"redotheory/internal/model"
	"redotheory/internal/workload"
)

func TestTruncateCheckpointedBasics(t *testing.T) {
	ps := pages(2)
	s0 := initialState(ps)
	db := NewPhysical(s0)
	for i := 1; i <= 4; i++ {
		if err := db.Exec(singlePageOp(model.OpID(i), ps[(i-1)%2])); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil { // flushes all + checkpoint at end
		t.Fatal(err)
	}
	if err := db.Exec(singlePageOp(5, ps[0])); err != nil {
		t.Fatal(err)
	}
	n, err := db.TruncateCheckpointed()
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("truncated %d records, want 4", n)
	}
	// The base absorbed the truncated ops.
	want := s0.Clone()
	for _, op := range []*model.Op{} {
		mustApply(want, op)
	}
	base := db.RecoveryBase()
	if base.Equal(s0) {
		t.Fatal("recovery base unchanged by truncation")
	}
	// Crash and recover: base + surviving log = oracle.
	db.FlushLog()
	db.Crash()
	res, err := Recover(db)
	if err != nil {
		t.Fatal(err)
	}
	oracle := db.RecoveryBase()
	for _, op := range db.StableLog().Ops() {
		mustApply(oracle, op)
	}
	if !res.State.Equal(oracle) {
		t.Errorf("recovered %v, want %v", res.State, oracle)
	}
	if db.StableLog().Len() != 1 {
		t.Errorf("surviving log has %d records, want 1", db.StableLog().Len())
	}
}

func TestTruncateWithoutCheckpointIsNoop(t *testing.T) {
	db := NewPhysiological(initialState(pages(1)))
	if err := db.Exec(singlePageOp(1, pages(1)[0])); err != nil {
		t.Fatal(err)
	}
	n, err := db.TruncateCheckpointed()
	if err != nil || n != 0 {
		t.Errorf("truncate without checkpoint: n=%d err=%v", n, err)
	}
}

func TestTruncateIdempotent(t *testing.T) {
	ps := pages(2)
	db := NewPhysical(initialState(ps))
	for i := 1; i <= 3; i++ {
		if err := db.Exec(singlePageOp(model.OpID(i), ps[0])); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n, err := db.TruncateCheckpointed(); err != nil || n != 3 {
		t.Fatalf("first truncate: n=%d err=%v", n, err)
	}
	base1 := db.RecoveryBase()
	if n, err := db.TruncateCheckpointed(); err != nil || n != 0 {
		t.Fatalf("second truncate: n=%d err=%v", n, err)
	}
	if !db.RecoveryBase().Equal(base1) {
		t.Error("repeated truncation changed the base")
	}
}

func TestTruncationCrashSweepAllMethods(t *testing.T) {
	// Random schedules with truncation after checkpoints: recovery from
	// base + surviving log must match the full execution at every crash
	// point, for every method.
	mks := map[string]struct {
		mk    func(*model.State) DB
		shape func(model.OpID, *rand.Rand, []model.Var) *model.Op
	}{
		"physiological":     {func(s *model.State) DB { return NewPhysiological(s) }, singlePageMk},
		"physiological+dpt": {func(s *model.State) DB { return NewPhysiologicalDPT(s) }, singlePageMk},
		"physical":          {func(s *model.State) DB { return NewPhysical(s) }, anyShapeMk},
		"logical":           {func(s *model.State) DB { return NewLogical(s) }, anyShapeMk},
		"genlsn":            {func(s *model.State) DB { return NewGenLSN(s) }, readManyWriteOneMk},
		"grouplsn":          {func(s *model.State) DB { return NewGroupLSN(s) }, anyShapeMk},
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for name, cfg := range mks {
			ps := pages(4)
			s0 := initialState(ps)
			db := cfg.mk(s0)
			fullOracle := s0.Clone()
			n := 8 + rng.Intn(15)
			for i := 1; i <= n; i++ {
				op := cfg.shape(model.OpID(i*10), rng, ps)
				if err := db.Exec(op); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				mustApply(fullOracle, op)
				switch rng.Intn(5) {
				case 0:
					db.FlushOne()
				case 1:
					db.FlushLog()
				case 2:
					if err := db.Checkpoint(); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if _, err := db.(Truncator).TruncateCheckpointed(); err != nil {
						t.Fatalf("%s: truncate: %v", name, err)
					}
				}
			}
			db.FlushLog()
			db.Crash()
			res, err := Recover(db)
			if err != nil {
				t.Fatalf("%s: recover: %v", name, err)
			}
			// With the whole log forced before the crash, recovery must
			// reproduce the full execution regardless of truncation.
			if !res.State.Equal(fullOracle) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestCheckpointedUpToStopsAtBound: the checkpoint-covered set is every
// stable record strictly below the bound, found by binary search on the
// LSN-ordered log — for every bound around a log whose head was
// truncated away, so the first LSN is not 1.
func TestCheckpointedUpToStopsAtBound(t *testing.T) {
	log := core.NewLog()
	for i := 1; i <= 12; i++ {
		log.Append(singlePageOp(model.OpID(i), "p"))
	}
	log.TruncateBefore(4)
	for bound := core.LSN(0); bound <= 15; bound++ {
		got := checkpointedUpTo(log, bound)
		want := 0
		for _, r := range log.Records() {
			if r.LSN < bound {
				want++
				if !got.Has(r.Op.ID()) {
					t.Errorf("bound %d: op %d (LSN %d) missing", bound, r.Op.ID(), r.LSN)
				}
			}
		}
		if len(got) != want {
			t.Errorf("bound %d: %d ops, want %d", bound, len(got), want)
		}
	}
}

// TestCheckpointedMatchesBound pins every method's Checkpointed to one
// definition: the stable-logged operations below CheckpointBound, and
// nothing when there is no stable checkpoint. The table covers both
// checkpoint payload shapes (+dpt's table snapshot, the scalar bound of
// the rest, logical's pointer swing among them), over seeded histories
// with and without log truncation after a checkpoint.
func TestCheckpointedMatchesBound(t *testing.T) {
	pages := workload.Pages(5)
	for _, f := range parallelFactories {
		shapes, err := workload.ShapesFor(f.name)
		if err != nil {
			t.Fatal(err)
		}
		for _, truncate := range []bool{false, true} {
			var none, some int // crash points with no checkpoint, with a non-empty set
			for seed := int64(1); seed <= 3; seed++ {
				ops := shapes[0].Gen(40, pages, seed)
				for crash := 0; crash <= len(ops); crash += 4 {
					db := f.mk(workload.InitialState(pages))
					rng := rand.New(rand.NewSource(seed*97 + int64(crash)))
					for _, op := range ops[:crash] {
						if err := db.Exec(op); err != nil {
							t.Fatal(err)
						}
						if rng.Float64() < 0.3 {
							db.FlushOne()
						}
						if rng.Float64() < 0.2 {
							db.FlushLog()
						}
						if rng.Float64() < 0.15 {
							if err := db.Checkpoint(); err != nil {
								t.Fatal(err)
							}
							if truncate && rng.Intn(2) == 0 {
								if _, err := db.(Truncator).TruncateCheckpointed(); err != nil {
									t.Fatal(err)
								}
							}
						}
					}
					db.Crash()
					got := db.Checkpointed()
					want := graph.NewSet[model.OpID]()
					if bound, ok := db.CheckpointBound(); ok {
						for _, r := range db.StableLog().Records() {
							if r.LSN < bound {
								want.Add(r.Op.ID())
							}
						}
					} else {
						none++
					}
					if len(want) > 0 {
						some++
					}
					if len(got) != len(want) {
						t.Fatalf("%s truncate=%v seed=%d crash=%d: Checkpointed has %d ops, want %d", f.name, truncate, seed, crash, len(got), len(want))
					}
					for id := range want {
						if !got.Has(id) {
							t.Fatalf("%s truncate=%v seed=%d crash=%d: op %d below the bound is missing", f.name, truncate, seed, crash, id)
						}
					}
				}
			}
			if none == 0 || some == 0 {
				t.Errorf("%s truncate=%v: %d crash points without a checkpoint, %d with a non-empty set; the table must cover both", f.name, truncate, none, some)
			}
		}
	}
}
