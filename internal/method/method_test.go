package method

import (
	"math/rand"
	"testing"
	"testing/quick"

	"redotheory/internal/model"
)

// oracle applies the stable-logged operations in LSN order to the initial
// state: the state determined by the surviving log's conflict graph,
// which recovery must reconstruct.
func oracle(db DB, initial *model.State) *model.State {
	s := initial.Clone()
	for _, op := range db.StableLog().Ops() {
		s.MustApply(op)
	}
	return s
}

func pages(n int) []model.Var {
	out := make([]model.Var, n)
	for i := range out {
		out[i] = model.Var(string(rune('a' + i)))
	}
	return out
}

// singlePageOp builds a physiological-legal op: read page p, write page p.
func singlePageOp(id model.OpID, p model.Var) *model.Op {
	return model.ReadWrite(id, "upd", []model.Var{p}, []model.Var{p})
}

func initialState(ps []model.Var) *model.State {
	s := model.NewState()
	for i, p := range ps {
		s.SetInt(p, int64(100+i))
	}
	return s
}

func TestPhysiologicalBasicCrashRecover(t *testing.T) {
	ps := pages(3)
	s0 := initialState(ps)
	db := NewPhysiological(s0)
	for i := 1; i <= 6; i++ {
		if err := db.Exec(singlePageOp(model.OpID(i), ps[(i-1)%3])); err != nil {
			t.Fatal(err)
		}
	}
	db.FlushOne() // install one page (forces log through its LSN)
	db.FlushLog()
	db.Crash()
	res, err := Recover(db)
	if err != nil {
		t.Fatal(err)
	}
	if want := oracle(db, s0); !res.State.Equal(want) {
		t.Errorf("recovered %v, want %v", res.State, want)
	}
}

func TestPhysiologicalRejectsMultiPageOps(t *testing.T) {
	db := NewPhysiological(model.NewState())
	multi := model.ReadWrite(1, "bad", nil, []model.Var{"a", "b"})
	if err := db.Exec(multi); err == nil {
		t.Error("multi-page op accepted")
	}
	crossRead := model.ReadWrite(2, "bad2", []model.Var{"a"}, []model.Var{"b"})
	if err := db.Exec(crossRead); err == nil {
		t.Error("cross-page read accepted by physiological")
	}
}

func TestPhysiologicalRedoTestSkipsInstalled(t *testing.T) {
	ps := pages(1)
	s0 := initialState(ps)
	db := NewPhysiological(s0)
	op := singlePageOp(1, ps[0])
	if err := db.Exec(op); err != nil {
		t.Fatal(err)
	}
	db.FlushOne() // page installed with LSN 1
	db.Crash()
	res, err := Recover(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RedoSet()) != 0 {
		t.Errorf("installed op replayed: %v", res.RedoSet())
	}
	if !res.State.Equal(oracle(db, s0)) {
		t.Error("state wrong")
	}
}

func TestPhysiologicalFuzzyCheckpointBoundsScan(t *testing.T) {
	ps := pages(2)
	s0 := initialState(ps)
	db := NewPhysiological(s0)
	for i := 1; i <= 4; i++ {
		if err := db.Exec(singlePageOp(model.OpID(i), ps[(i-1)%2])); err != nil {
			t.Fatal(err)
		}
	}
	// Install everything, then checkpoint: bound = log end.
	for db.FlushOne() {
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(singlePageOp(5, ps[0])); err != nil {
		t.Fatal(err)
	}
	db.FlushLog()
	db.Crash()
	if ck := db.Checkpointed(); len(ck) != 4 {
		t.Errorf("checkpointed = %v, want 4 ops", ck)
	}
	res, err := Recover(db)
	if err != nil {
		t.Fatal(err)
	}
	if res.Examined != 1 {
		t.Errorf("examined = %d, want 1 (scan starts after checkpoint bound)", res.Examined)
	}
	if !res.State.Equal(oracle(db, s0)) {
		t.Error("state wrong")
	}
}

func TestPhysicalAfterImageLogging(t *testing.T) {
	ps := pages(2)
	s0 := initialState(ps)
	db := NewPhysical(s0)
	// A system op that writes two pages becomes two blind log records.
	op := model.ReadWrite(1, "sys", []model.Var{ps[0]}, []model.Var{ps[0], ps[1]})
	if err := db.Exec(op); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().LogRecords; got != 2 {
		t.Errorf("log records = %d, want 2 (one per page)", got)
	}
	for _, r := range db.StableLog().Records() {
		_ = r
	}
	db.FlushLog()
	db.Crash()
	res, err := Recover(db)
	if err != nil {
		t.Fatal(err)
	}
	want := s0.Clone()
	want.MustApply(op)
	if !res.State.Equal(want) {
		t.Errorf("recovered %v, want %v", res.State, want)
	}
}

func TestPhysicalCheckpointInstallsAtomically(t *testing.T) {
	ps := pages(2)
	s0 := initialState(ps)
	db := NewPhysical(s0)
	for i := 1; i <= 3; i++ {
		if err := db.Exec(singlePageOp(model.OpID(i), ps[(i-1)%2])); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Crash()
	if len(db.Checkpointed()) != 3 {
		t.Errorf("checkpointed = %d ops, want 3", len(db.Checkpointed()))
	}
	res, err := Recover(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RedoSet()) != 0 {
		t.Error("checkpoint-covered ops replayed")
	}
	if !res.State.Equal(oracle(db, s0)) {
		t.Error("state wrong")
	}
}

func TestPhysicalStealIsSafe(t *testing.T) {
	// Flush pages aggressively with no checkpoint: replay-all must still
	// be correct because after-images are idempotent.
	ps := pages(2)
	s0 := initialState(ps)
	db := NewPhysical(s0)
	for i := 1; i <= 4; i++ {
		if err := db.Exec(singlePageOp(model.OpID(i), ps[(i-1)%2])); err != nil {
			t.Fatal(err)
		}
		db.FlushOne()
	}
	db.FlushLog()
	db.Crash()
	res, err := Recover(db)
	if err != nil {
		t.Fatal(err)
	}
	if !res.State.Equal(oracle(db, s0)) {
		t.Error("state wrong after steal + replay-all")
	}
}

func TestLogicalWholeDatabaseOps(t *testing.T) {
	ps := pages(3)
	s0 := initialState(ps)
	db := NewLogical(s0)
	// Logical ops may read and write everything.
	op1 := model.ReadWrite(1, "sweep", ps, ps)
	if err := db.Exec(op1); err != nil {
		t.Fatal(err)
	}
	if db.FlushOne() {
		t.Error("logical recovery must not steal")
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	op2 := model.ReadWrite(2, "sweep2", ps, ps)
	if err := db.Exec(op2); err != nil {
		t.Fatal(err)
	}
	db.FlushLog()
	db.Crash()
	res, err := Recover(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RedoSet()) != 1 || !res.RedoSet().Has(2) {
		t.Errorf("redo set = %v, want {2}", res.RedoSet())
	}
	if !res.State.Equal(oracle(db, s0)) {
		t.Error("state wrong")
	}
}

func TestLogicalStableStateFrozenBetweenCheckpoints(t *testing.T) {
	ps := pages(2)
	s0 := initialState(ps)
	db := NewLogical(s0)
	if err := db.Exec(model.ReadWrite(1, "w", ps, []model.Var{ps[0]})); err != nil {
		t.Fatal(err)
	}
	if !db.StableState().Equal(s0) {
		t.Error("stable state changed without a checkpoint")
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if db.StableState().Equal(s0) {
		t.Error("checkpoint did not install the update")
	}
}

func TestGenLSNCarefulWriteOrder(t *testing.T) {
	// Figure 8: P reads x writes y, then Q writes x. The cache must
	// install y before x.
	s0 := model.StateOf(map[model.Var]model.Value{"x": "full-page"})
	db := NewGenLSN(s0)
	p := model.ReadWrite(1, "split", []model.Var{"x"}, []model.Var{"y"})
	q := model.ReadWrite(2, "truncate", []model.Var{"x"}, []model.Var{"x"})
	if err := db.Exec(p); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(q); err != nil {
		t.Fatal(err)
	}
	// FlushOne must pick y first: x is blocked by the dependency.
	if !db.FlushOne() {
		t.Fatal("no page flushable")
	}
	if db.store.PageLSN("y") != 1 {
		t.Fatalf("first flush installed %v, want y (new page before old)", db.store.LSNs())
	}
	if !db.FlushOne() {
		t.Fatal("x should be flushable after y")
	}
	if db.store.PageLSN("x") != 2 {
		t.Error("x not installed after y")
	}
	db.Crash()
	res, err := Recover(db)
	if err != nil {
		t.Fatal(err)
	}
	if !res.State.Equal(oracle(db, s0)) {
		t.Error("state wrong")
	}
}

func TestGenLSNRecoversWithNewPageInstalledOnly(t *testing.T) {
	// Install only the new page y, crash: Q (uninstalled) must replay
	// against the still-intact old page x; P (installed) is bypassed.
	s0 := model.StateOf(map[model.Var]model.Value{"x": "full-page"})
	db := NewGenLSN(s0)
	p := model.ReadWrite(1, "split", []model.Var{"x"}, []model.Var{"y"})
	q := model.ReadWrite(2, "truncate", []model.Var{"x"}, []model.Var{"x"})
	if err := db.Exec(p); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(q); err != nil {
		t.Fatal(err)
	}
	db.FlushOne() // installs y (forces log through LSN 1)
	db.FlushLog()
	db.Crash()
	res, err := Recover(db)
	if err != nil {
		t.Fatal(err)
	}
	if res.RedoSet().Has(1) {
		t.Error("installed split op replayed")
	}
	if !res.RedoSet().Has(2) {
		t.Error("uninstalled truncate not replayed")
	}
	if !res.State.Equal(oracle(db, s0)) {
		t.Errorf("recovered %v, want %v", res.State, oracle(db, s0))
	}
}

func TestGenLSNRejectsMultiWrite(t *testing.T) {
	db := NewGenLSN(model.NewState())
	if err := db.Exec(model.ReadWrite(1, "bad", nil, []model.Var{"a", "b"})); err == nil {
		t.Error("multi-write op accepted")
	}
}

// crashDance drives a DB through a random schedule of operations,
// flushes, checkpoints, and log forces, then crashes and verifies
// recovery against the oracle.
func crashDance(t *testing.T, rng *rand.Rand, mk func(*model.State) DB, mkOp func(id model.OpID, rng *rand.Rand, ps []model.Var) *model.Op) bool {
	ps := pages(4)
	s0 := initialState(ps)
	db := mk(s0)
	n := 5 + rng.Intn(20)
	for i := 1; i <= n; i++ {
		if err := db.Exec(mkOp(model.OpID(i*10), rng, ps)); err != nil {
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
	db.Crash()
	res, err := Recover(db)
	if err != nil {
		t.Fatalf("%s: recover: %v", db.Name(), err)
	}
	return res.State.Equal(oracle(db, s0))
}

func singlePageMk(id model.OpID, rng *rand.Rand, ps []model.Var) *model.Op {
	return singlePageOp(id, ps[rng.Intn(len(ps))])
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

func TestCrashRecoveryPropertyPhysiological(t *testing.T) {
	f := func(seed int64) bool {
		return crashDance(t, rand.New(rand.NewSource(seed)),
			func(s *model.State) DB { return NewPhysiological(s) }, singlePageMk)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestCrashRecoveryPropertyPhysical(t *testing.T) {
	f := func(seed int64) bool {
		return crashDance(t, rand.New(rand.NewSource(seed)),
			func(s *model.State) DB { return NewPhysical(s) }, anyShapeMk)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestCrashRecoveryPropertyLogical(t *testing.T) {
	f := func(seed int64) bool {
		return crashDance(t, rand.New(rand.NewSource(seed)),
			func(s *model.State) DB { return NewLogical(s) }, anyShapeMk)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestCrashRecoveryPropertyGenLSN(t *testing.T) {
	f := func(seed int64) bool {
		return crashDance(t, rand.New(rand.NewSource(seed)),
			func(s *model.State) DB { return NewGenLSN(s) }, readManyWriteOneMk)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestStatsPopulated(t *testing.T) {
	ps := pages(2)
	db := NewPhysiological(initialState(ps))
	if err := db.Exec(singlePageOp(1, ps[0])); err != nil {
		t.Fatal(err)
	}
	db.FlushOne()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.OpsExecuted != 1 || st.LogRecords != 1 || st.PageFlushes != 1 || st.Checkpoints != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.LogBytes <= 0 {
		t.Error("log bytes not accounted")
	}
}
