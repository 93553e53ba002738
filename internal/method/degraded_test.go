package method

import (
	"testing"

	"redotheory/internal/model"
)

// degradedOracle replays the (already repaired) surviving log from the
// recovery base: the state degraded recovery must reach.
func degradedOracle(db DB) *model.State {
	s := db.RecoveryBase()
	for _, op := range db.StableLog().Ops() {
		mustApply(s, op)
	}
	return s
}

func hasDetection(res *DegradedResult, code string) bool {
	for _, d := range res.Detections {
		if d.Code == code {
			return true
		}
	}
	return false
}

func TestDegradedCleanCrashIsFastPath(t *testing.T) {
	ps := pages(3)
	s0 := initialState(ps)
	db := NewPhysiological(s0)
	for i := 1; i <= 6; i++ {
		if err := db.Exec(singlePageOp(model.OpID(i), ps[(i-1)%3])); err != nil {
			t.Fatal(err)
		}
	}
	db.FlushOne()
	db.FlushLog()
	db.Crash()
	res, err := RecoverDegraded(db, RunToCompletion())
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded || len(res.Detections) != 0 || res.Unrecoverable {
		t.Fatalf("clean crash degraded: %+v", res)
	}
	if want := degradedOracle(db); !res.State.Equal(want) {
		t.Errorf("recovered %v, want %v", res.State, want)
	}
	if res.Audit == nil || !res.Audit.OK {
		t.Errorf("audit failed: %v", res.Audit.Summary())
	}
}

func TestDegradedTornTail(t *testing.T) {
	ps := pages(3)
	s0 := initialState(ps)
	db := NewPhysiological(s0)
	for i := 1; i <= 6; i++ {
		if err := db.Exec(singlePageOp(model.OpID(i), ps[(i-1)%3])); err != nil {
			t.Fatal(err)
		}
	}
	db.FlushLog()
	db.Crash()
	if n := db.WAL().TearStableTail(2); n != 2 {
		t.Fatalf("tore %d", n)
	}
	res, err := RecoverDegraded(db, RunToCompletion())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || !hasDetection(res, "torn-tail") {
		t.Fatalf("torn tail not degraded-detected: %+v", res)
	}
	if res.Unrecoverable {
		t.Fatal("pure torn tail must be recoverable (degraded)")
	}
	// The oracle is over the log as repaired: the torn suffix is gone.
	if db.StableLog().Len() != 4 {
		t.Fatalf("repaired log has %d records, want 4", db.StableLog().Len())
	}
	if want := degradedOracle(db); !res.State.Equal(want) {
		t.Errorf("recovered %v, want %v", res.State, want)
	}
	if res.Audit == nil || !res.Audit.OK {
		t.Errorf("audit failed: %v", res.Audit.Summary())
	}
}

func TestDegradedCorruptPageRepaired(t *testing.T) {
	ps := pages(3)
	s0 := initialState(ps)
	db := NewPhysiological(s0)
	for i := 1; i <= 6; i++ {
		if err := db.Exec(singlePageOp(model.OpID(i), ps[(i-1)%3])); err != nil {
			t.Fatal(err)
		}
	}
	db.FlushOne()
	db.FlushLog()
	db.Crash()
	if !db.Store().CorruptPage(ps[0]) {
		t.Fatal("no page to corrupt")
	}
	res, err := RecoverDegraded(db, RunToCompletion())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || !hasDetection(res, "corrupt-page") {
		t.Fatalf("bit-rot not detected: %+v", res)
	}
	if len(res.Quarantined) == 0 || res.Quarantined[0] != ps[0] {
		t.Errorf("quarantined = %v, want [%s]", res.Quarantined, ps[0])
	}
	if want := degradedOracle(db); !res.State.Equal(want) {
		t.Errorf("recovered %v, want %v", res.State, want)
	}
	// The repair rewrote the rotted page with a fresh checksum.
	if bad := db.Store().VerifyAll(); len(bad) != 0 {
		t.Errorf("store still corrupt after repair: %v", bad)
	}
	if res.Audit == nil || !res.Audit.OK {
		t.Errorf("audit failed: %v", res.Audit.Summary())
	}
}

func TestDegradedStaleBelowCheckpointFloor(t *testing.T) {
	ps := pages(2)
	s0 := initialState(ps)
	db := NewPhysiological(s0)
	for i := 1; i <= 4; i++ {
		if err := db.Exec(singlePageOp(model.OpID(i), ps[(i-1)%2])); err != nil {
			t.Fatal(err)
		}
	}
	// Install everything and checkpoint so the bound covers all four ops.
	for db.FlushOne() {
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Crash()
	// Simulate a lost write revealed at crash: page a reverts to its
	// initial, checksum-valid version below the checkpoint floor.
	db.Store().Write(ps[0], s0.Get(ps[0]), 0)
	res, err := RecoverDegraded(db, RunToCompletion())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || !hasDetection(res, "stale-page") {
		t.Fatalf("stale page not detected: %+v", res)
	}
	if want := degradedOracle(db); !res.State.Equal(want) {
		t.Errorf("recovered %v, want %v", res.State, want)
	}
	if res.Audit == nil || !res.Audit.OK {
		t.Errorf("audit failed: %v", res.Audit.Summary())
	}
}

// TestDegradedCarefulOrderViolation: a lost write under genlsn reverts a
// page that a later-installed overwrite depended on. The page is
// checksum-valid and above every floor, so only the careful-write-order
// audit reconstructed from the log's read sets can catch it — and must,
// because genlsn's re-reading redo test would otherwise recompute from
// the stale value.
func TestDegradedCarefulOrderViolation(t *testing.T) {
	ps := pages(2)
	s0 := initialState(ps)
	db := NewGenLSN(s0)
	ops := []*model.Op{
		model.ReadWrite(1, "u", []model.Var{ps[0]}, []model.Var{ps[0]}),
		model.ReadWrite(2, "u", []model.Var{ps[0], ps[1]}, []model.Var{ps[1]}),
		model.ReadWrite(3, "u", []model.Var{ps[0]}, []model.Var{ps[0]}),
	}
	for _, op := range ops {
		if err := db.Exec(op); err != nil {
			t.Fatal(err)
		}
	}
	db.FlushLog()
	for db.FlushOne() {
	}
	db.Crash()
	// Simulate the lost write: page b reverts to its initial version —
	// checksum-valid, no checkpoint floor to fall below — while page a
	// keeps the overwrite (LSN 3) whose install careful order gated on b.
	db.Store().Write(ps[1], s0.Get(ps[1]), 0)
	res, err := RecoverDegraded(db, RunToCompletion())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || !hasDetection(res, "careful-order") {
		t.Fatalf("careful-order violation not detected: %+v", res)
	}
	if want := degradedOracle(db); !res.State.Equal(want) {
		t.Errorf("recovered %v, want %v", res.State, want)
	}
	if res.Audit == nil || !res.Audit.OK {
		t.Errorf("audit failed: %v", res.Audit.Summary())
	}
}

func TestDegradedOrphanIsUnrecoverable(t *testing.T) {
	ps := pages(2)
	s0 := initialState(ps)
	db := NewPhysiological(s0)
	for i := 1; i <= 3; i++ {
		if err := db.Exec(singlePageOp(model.OpID(i), ps[(i-1)%2])); err != nil {
			t.Fatal(err)
		}
	}
	db.FlushLog()
	db.Crash()
	// A page tagged past the end of the surviving log: its records are gone.
	db.Store().Write(ps[1], "phantom", 99)
	res, err := RecoverDegraded(db, RunToCompletion())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unrecoverable || !hasDetection(res, "orphan-page") {
		t.Fatalf("orphan page not flagged unrecoverable: %+v", res)
	}
	if res.State != nil {
		t.Error("unrecoverable outcome still returned a state")
	}
}

func TestDegradedAbortedRepairConverges(t *testing.T) {
	ps := pages(4)
	s0 := initialState(ps)
	db := NewGroupLSN(s0)
	ops := []*model.Op{
		model.ReadWrite(1, "g", []model.Var{ps[0], ps[1]}, []model.Var{ps[0], ps[1]}),
		model.ReadWrite(2, "g", []model.Var{ps[2], ps[3]}, []model.Var{ps[2], ps[3]}),
		model.ReadWrite(3, "g", []model.Var{ps[0], ps[2]}, []model.Var{ps[0], ps[2]}),
	}
	for _, op := range ops {
		if err := db.Exec(op); err != nil {
			t.Fatal(err)
		}
	}
	db.FlushLog()
	db.Crash()
	db.Store().CorruptPage(ps[0])
	// First attempt crashes after repairing a single page, leaving a
	// partially repaired store (possibly a partial multi-page install).
	first, err := RecoverDegraded(db, DegradedOptions{AbortAfterRepairs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !first.Aborted || first.State != nil {
		t.Fatalf("abort not honored: %+v", first)
	}
	// The rerun validates again — whatever the abort left behind must be
	// re-detected or already consistent — and converges.
	second, err := RecoverDegraded(db, RunToCompletion())
	if err != nil {
		t.Fatal(err)
	}
	if second.Aborted || second.Unrecoverable {
		t.Fatalf("rerun did not complete: %+v", second)
	}
	if want := degradedOracle(db); !second.State.Equal(want) {
		t.Errorf("rerun recovered %v, want %v", second.State, want)
	}
	if second.Audit == nil || !second.Audit.OK {
		t.Errorf("audit failed: %v", second.Audit.Summary())
	}
	if bad := db.Store().VerifyAll(); len(bad) != 0 {
		t.Errorf("store corrupt after converged repair: %v", bad)
	}
}

// TestDegradedAllMethodsCleanAndTorn sweeps every method variant through
// a clean crash and a torn-tail crash under RecoverDegraded.
func TestDegradedAllMethodsCleanAndTorn(t *testing.T) {
	type factory struct {
		name string
		make func(*model.State) DB
	}
	factories := []factory{
		{"logical", func(s *model.State) DB { return NewLogical(s) }},
		{"physical", func(s *model.State) DB { return NewPhysical(s) }},
		{"physiological", func(s *model.State) DB { return NewPhysiological(s) }},
		{"physiological+dpt", func(s *model.State) DB { return NewPhysiologicalDPT(s) }},
		{"genlsn", func(s *model.State) DB { return NewGenLSN(s) }},
		{"genlsn+mv", func(s *model.State) DB { return NewGenLSNMV(s) }},
		{"grouplsn", func(s *model.State) DB { return NewGroupLSN(s) }},
	}
	for _, f := range factories {
		for _, tear := range []int{0, 1} {
			ps := pages(3)
			s0 := initialState(ps)
			db := f.make(s0)
			for i := 1; i <= 6; i++ {
				if err := db.Exec(singlePageOp(model.OpID(i), ps[(i-1)%3])); err != nil {
					t.Fatalf("%s: %v", f.name, err)
				}
			}
			db.FlushOne()
			db.FlushLog()
			db.Crash()
			db.WAL().TearStableTail(tear)
			res, err := RecoverDegraded(db, RunToCompletion())
			if err != nil {
				t.Fatalf("%s tear=%d: %v", f.name, tear, err)
			}
			if res.Unrecoverable {
				t.Fatalf("%s tear=%d: unrecoverable: %+v", f.name, tear, res)
			}
			if (tear > 0) != res.Degraded {
				t.Errorf("%s tear=%d: degraded=%v", f.name, tear, res.Degraded)
			}
			if want := degradedOracle(db); !res.State.Equal(want) {
				t.Errorf("%s tear=%d: recovered %v, want %v", f.name, tear, res.State, want)
			}
			if res.Audit == nil || !res.Audit.OK {
				t.Errorf("%s tear=%d: audit failed: %v", f.name, tear, res.Audit.Summary())
			}
		}
	}
}
