package method

import (
	"math/rand"
	"testing"
	"testing/quick"

	"redotheory/internal/core"
	"redotheory/internal/model"
)

func TestDPTRecoversAcrossCrashPoints(t *testing.T) {
	f := func(seed int64) bool {
		return crashDance(t, rand.New(rand.NewSource(seed)),
			func(s *model.State) DB { return NewPhysiologicalDPT(s) }, singlePageMk)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestDPTSkipsInstalledWork(t *testing.T) {
	// Flush a page, checkpoint, keep another page dirty: recovery must
	// skip the flushed page's operations via the table alone.
	ps := pages(2)
	s0 := initialState(ps)
	db := NewPhysiologicalDPT(s0)
	// Dirty both pages.
	if err := db.Exec(singlePageOp(1, ps[0])); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(singlePageOp(2, ps[1])); err != nil {
		t.Fatal(err)
	}
	// Install page 0 only, then checkpoint: the DPT lists only page 1.
	if err := db.cache.Flush(ps[0]); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// More work on page 1 after the checkpoint.
	if err := db.Exec(singlePageOp(3, ps[1])); err != nil {
		t.Fatal(err)
	}
	db.FlushLog()
	db.Crash()
	res, err := Recover(db)
	if err != nil {
		t.Fatal(err)
	}
	if !res.State.Equal(oracle(db, s0)) {
		t.Fatal("state wrong")
	}
	// Op 1 is below the checkpoint bound? The bound is min recLSN of
	// dirty pages = op 2's LSN, so op 1 is checkpoint-covered and ops 2,3
	// are replayed. The DPT's job shows on histories where installed
	// pages interleave past the bound; assert it at least recovered and
	// that the redo set is exactly {2,3}.
	if len(res.RedoSet()) != 2 || !res.RedoSet().Has(2) || !res.RedoSet().Has(3) {
		t.Errorf("redo set = %v, want {2,3}", res.RedoSet())
	}
}

func TestDPTSkipCounterFires(t *testing.T) {
	// Exercise both pure-DPT skip paths. Pages: Q pins the checkpoint
	// bound at LSN 1; R is written once (LSN 2), flushed, and never
	// touched again — clean at checkpoint, absent from the reconstructed
	// table, so op 2 is skipped without a page read; P is written (LSN
	// 3), flushed, and re-dirtied (LSN 4), so its snapshot recLSN is 4
	// and op 3 (< 4) is skipped by the table too.
	q, r, p := pages(3)[0], pages(3)[1], pages(3)[2]
	s0 := initialState(pages(3))
	db := NewPhysiologicalDPT(s0)
	mustExec := func(id model.OpID, pg model.Var) {
		t.Helper()
		if err := db.Exec(singlePageOp(id, pg)); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(1, q) // Q dirty, recLSN 1 — the bound
	mustExec(2, r)
	if err := db.cache.Flush(r); err != nil {
		t.Fatal(err)
	}
	mustExec(3, p)
	if err := db.cache.Flush(p); err != nil {
		t.Fatal(err)
	}
	mustExec(4, p) // P re-dirtied: snapshot recLSN 4
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.FlushLog()
	db.Crash()
	res, err := Recover(db)
	if err != nil {
		t.Fatal(err)
	}
	if !res.State.Equal(oracle(db, s0)) {
		t.Fatal("state wrong")
	}
	if len(res.RedoSet()) != 2 || !res.RedoSet().Has(1) || !res.RedoSet().Has(4) {
		t.Errorf("redo set = %v, want {1,4}", res.RedoSet())
	}
	// Ops 2 and 3 are rejected by the table db.Analyze() reconstructs,
	// before any page-LSN comparison: R is absent from it, and P's
	// recLSN is above op 3's LSN.
	log := db.StableLog()
	dpt := db.Analyze()(db.StableState(), log, db.Checkpointed()).(map[model.Var]core.LSN)
	if _, ok := dpt[r]; ok {
		t.Errorf("table %v holds R, which was clean at the checkpoint (op 2 not skipped by the table)", dpt)
	}
	if rec, ok := dpt[p]; !ok || rec <= log.RecordOf(3).LSN {
		t.Errorf("table %v: P's recLSN must be above op 3's LSN %d (op 3 not skipped by the table)", dpt, log.RecordOf(3).LSN)
	}
}

func TestDPTCrashDuringRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ps := pages(4)
	s0 := initialState(ps)
	db := NewPhysiologicalDPT(s0)
	for i := 1; i <= 20; i++ {
		if err := db.Exec(singlePageMk(model.OpID(i*10), rng, ps)); err != nil {
			t.Fatal(err)
		}
		switch rng.Intn(4) {
		case 0:
			db.FlushOne()
		case 1:
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	db.FlushLog()
	db.Crash()
	final := crashingRecoveryToFixpoint(t, db, s0, rng)
	if !final.Equal(oracle(db, s0)) {
		t.Error("fixpoint diverges from oracle")
	}
}
