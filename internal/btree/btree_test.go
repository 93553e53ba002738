package btree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"redotheory/internal/method"
	"redotheory/internal/model"
)

// stateExec runs tree operations directly against a model state: the
// no-crash reference executor.
type stateExec struct{ s *model.State }

func (e *stateExec) Read(x model.Var) model.Value { return e.s.Get(x) }
func (e *stateExec) Exec(op *model.Op) error      { _, err := e.s.Apply(op); return err }

func sortedCopy(ks []int64) []int64 {
	out := append([]int64{}, ks...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// sortedUnique returns the distinct keys in ascending order: what the
// tree (set semantics) actually holds after inserting ks.
func sortedUnique(ks []int64) []int64 {
	s := sortedCopy(ks)
	out := s[:0]
	for i, k := range s {
		if i == 0 || k != s[i-1] {
			out = append(out, k)
		}
	}
	return out
}

func insertAll(t testing.TB, tr *Tree, keys []int64) {
	t.Helper()
	for _, k := range keys {
		if err := tr.Insert(k); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
}

func TestInsertSearchInMemory(t *testing.T) {
	tr := New(&stateExec{s: model.NewState()}, GeneralizedSplit, 4, 1)
	keys := []int64{5, 1, 9, 3, 7, 2, 8, 4, 6, 0, 12, 11, 10}
	insertAll(t, tr, keys)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Keys()
	if err != nil {
		t.Fatal(err)
	}
	want := sortedCopy(keys)
	if len(got) != len(want) {
		t.Fatalf("keys = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("keys = %v, want %v", got, want)
		}
	}
	for _, k := range keys {
		if ok, _ := tr.Search(k); !ok {
			t.Errorf("Search(%d) = false", k)
		}
	}
	if ok, _ := tr.Search(99); ok {
		t.Error("Search(99) found a phantom")
	}
	if tr.Splits == 0 {
		t.Error("no splits happened; raise the key count")
	}
}

func TestDuplicateInsertIgnored(t *testing.T) {
	tr := New(&stateExec{s: model.NewState()}, GeneralizedSplit, 4, 1)
	insertAll(t, tr, []int64{1, 2, 1, 2, 1})
	got, _ := tr.Keys()
	if len(got) != 2 {
		t.Errorf("keys = %v, want [1 2]", got)
	}
}

func TestDelete(t *testing.T) {
	tr := New(&stateExec{s: model.NewState()}, GeneralizedSplit, 4, 1)
	insertAll(t, tr, []int64{1, 2, 3, 4, 5, 6, 7})
	if err := tr.Delete(4); err != nil {
		t.Fatal(err)
	}
	if ok, _ := tr.Search(4); ok {
		t.Error("deleted key still found")
	}
	if err := tr.Delete(99); err != nil {
		t.Error("deleting a missing key must be a no-op:", err)
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}

func TestEmptyTree(t *testing.T) {
	tr := New(&stateExec{s: model.NewState()}, GeneralizedSplit, 4, 1)
	if ok, err := tr.Search(1); ok || err != nil {
		t.Error("empty tree search")
	}
	if ks, err := tr.Keys(); ks != nil || err != nil {
		t.Error("empty tree keys")
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
	if err := tr.Delete(1); err != nil {
		t.Error(err)
	}
}

func TestBothStrategiesSameTreeContents(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		keys := rng.Perm(60)
		run := func(st SplitStrategy) []int64 {
			tr := New(&stateExec{s: model.NewState()}, st, 4, 1)
			for _, k := range keys {
				if err := tr.Insert(int64(k)); err != nil {
					return nil
				}
			}
			if err := tr.Validate(); err != nil {
				return nil
			}
			ks, err := tr.Keys()
			if err != nil {
				return nil
			}
			return ks
		}
		a, b := run(PhysiologicalSplit), run(GeneralizedSplit)
		if a == nil || b == nil || len(a) != len(b) || len(a) != 60 {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// crashRecoverTree runs inserts through a method DB with background
// flushes, forces the log, crashes, recovers, and checks the recovered
// tree matches the volatile tree at crash time.
func crashRecoverTree(t *testing.T, db method.DB, strategy SplitStrategy, keys []int64, rng *rand.Rand) {
	t.Helper()
	tr := New(db, strategy, 4, 1)
	for _, k := range keys {
		if err := tr.Insert(k); err != nil {
			t.Fatalf("%s/%s: insert %d: %v", db.Name(), strategy, k, err)
		}
		if rng.Float64() < 0.4 {
			db.FlushOne()
		}
		if rng.Float64() < 0.15 {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	db.FlushLog() // crash at a quiescent log boundary: the full history survives
	db.Crash()
	res, err := method.Recover(db)
	if err != nil {
		t.Fatalf("%s/%s: recover: %v", db.Name(), strategy, err)
	}
	rec := New(&stateExec{s: res.State}, strategy, 4, 1)
	if err := rec.Validate(); err != nil {
		t.Fatalf("%s/%s: recovered tree invalid: %v", db.Name(), strategy, err)
	}
	got, err := rec.Keys()
	if err != nil {
		t.Fatal(err)
	}
	want := sortedUnique(keys)
	if len(got) != len(want) {
		t.Fatalf("%s/%s: recovered %d keys, want %d", db.Name(), strategy, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s/%s: recovered keys diverge at %d", db.Name(), strategy, i)
		}
	}
}

func TestCrashRecoverPhysiologicalSplits(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	keys := make([]int64, 80)
	for i := range keys {
		keys[i] = int64(rng.Intn(1000))
	}
	crashRecoverTree(t, method.NewPhysiological(model.NewState()), PhysiologicalSplit, keys, rng)
}

func TestCrashRecoverGeneralizedSplits(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	keys := make([]int64, 80)
	for i := range keys {
		keys[i] = int64(rng.Intn(1000))
	}
	crashRecoverTree(t, method.NewGenLSN(model.NewState()), GeneralizedSplit, keys, rng)
}

func TestCrashRecoverOnLogicalAndPhysical(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	keys := make([]int64, 50)
	for i := range keys {
		keys[i] = int64(rng.Intn(500))
	}
	crashRecoverTree(t, method.NewLogical(model.NewState()), GeneralizedSplit, keys, rng)
	crashRecoverTree(t, method.NewPhysical(model.NewState()), PhysiologicalSplit, keys, rng)
}

func TestMidSplitCrashStillRecoversLoggedPrefix(t *testing.T) {
	// Crash with the log cut mid-split: recovery must reproduce exactly
	// the logged prefix (redo recovery restores the log's state; making
	// multi-operation actions atomic is a transaction concern outside the
	// paper's scope). The recovered state must equal the oracle replay of
	// the stable log.
	db := method.NewGenLSN(model.NewState())
	tr := New(db, GeneralizedSplit, 2, 1)
	for k := int64(1); k <= 6; k++ {
		if err := tr.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	full := db.Log()
	if full.Len() < 4 {
		t.Skip("history too short to cut mid-split")
	}
	// Force only part of the log: stable cut lands inside a split.
	db.WAL().FlushTo(full.Records()[full.Len()/2].LSN)
	db.Crash()
	res, err := method.Recover(db)
	if err != nil {
		t.Fatal(err)
	}
	oracle := model.NewState()
	for _, op := range db.StableLog().Ops() {
		if _, err := oracle.Apply(op); err != nil {
			t.Fatal(err)
		}
	}
	if !res.State.Equal(oracle) {
		t.Errorf("recovered %v, want oracle %v", res.State, oracle)
	}
}

func TestGeneralizedSplitLogsFewerBytes(t *testing.T) {
	// The Section 6.4 claim: generalized split logging avoids physically
	// logging the moved half, so its log volume is substantially smaller
	// on a split-heavy insert stream.
	keys := make([]int64, 2000)
	rng := rand.New(rand.NewSource(7))
	for i := range keys {
		keys[i] = int64(rng.Intn(10000000))
	}
	physio := method.NewPhysiological(model.NewState())
	trP := New(physio, PhysiologicalSplit, 32, 1)
	insertAll(t, trP, keys)
	gen := method.NewGenLSN(model.NewState())
	trG := New(gen, GeneralizedSplit, 32, 1)
	insertAll(t, trG, keys)
	pb, gb := physio.Stats().LogBytes, gen.Stats().LogBytes
	if gb >= pb {
		t.Errorf("generalized logged %d total bytes, physiological %d; expected a win", gb, pb)
	}
	// The claim is specifically about split logging: the records that
	// initialize the new page. Physiological must ship the page image;
	// generalized ships a descriptor. Expect at least a 2x gap on those.
	pSplit := SplitLogBytes(physio.Log())
	gSplit := SplitLogBytes(gen.Log())
	if trP.Splits != trG.Splits {
		t.Fatalf("split counts diverge: %d vs %d", trP.Splits, trG.Splits)
	}
	if gSplit*2 > pSplit {
		t.Errorf("split bytes: generalized %d vs physiological %d; expected ≥2x gap", gSplit, pSplit)
	}
}

func TestPageEncodingRoundTrip(t *testing.T) {
	p := &nodePage{Leaf: false, Keys: []int64{3, 7}, Kids: []model.Var{"a", "b", "c"}}
	q, err := decodePage(encodePage(p))
	if err != nil {
		t.Fatal(err)
	}
	if q.Leaf != p.Leaf || len(q.Keys) != 2 || len(q.Kids) != 3 || q.Kids[1] != "b" {
		t.Errorf("round trip = %+v", q)
	}
	if p, err := decodePage(""); p != nil || err != nil {
		t.Error("zero value must decode to nil")
	}
	if _, err := decodePage("garbage"); err == nil {
		t.Error("garbage accepted")
	}
}

func TestSplitPoint(t *testing.T) {
	leaf := &nodePage{Leaf: true, Keys: []int64{1, 2, 3, 4}}
	sep, l, r := leaf.splitPoint()
	if sep != 3 || len(l.Keys) != 2 || len(r.Keys) != 2 || r.Keys[0] != 3 {
		t.Errorf("leaf split = %d %v %v", sep, l.Keys, r.Keys)
	}
	in := &nodePage{Keys: []int64{10, 20, 30, 40}, Kids: []model.Var{"a", "b", "c", "d", "e"}}
	sep, l, r = in.splitPoint()
	if sep != 30 {
		t.Errorf("internal sep = %d", sep)
	}
	if len(l.Keys) != 2 || len(l.Kids) != 3 || len(r.Keys) != 1 || len(r.Kids) != 2 {
		t.Errorf("internal split = %v/%v %v/%v", l.Keys, l.Kids, r.Keys, r.Kids)
	}
}

func TestInsertChild(t *testing.T) {
	p := &nodePage{Keys: []int64{10, 30}, Kids: []model.Var{"a", "b", "c"}}
	p.insertChild(20, "x")
	if len(p.Keys) != 3 || p.Keys[1] != 20 {
		t.Errorf("keys = %v", p.Keys)
	}
	if len(p.Kids) != 4 || p.Kids[2] != "x" {
		t.Errorf("kids = %v", p.Kids)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	s := model.NewState()
	tr := New(&stateExec{s: s}, GeneralizedSplit, 4, 1)
	insertAll(t, tr, []int64{1, 2, 3, 4, 5, 6, 7, 8})
	// Corrupt a page: swap two keys in the root.
	root := mustDecode(s.Get(tr.root))
	if root.Leaf {
		t.Fatal("tree too small")
	}
	kid := mustDecode(s.Get(root.Kids[0]))
	if len(kid.Keys) < 1 {
		t.Fatal("empty kid")
	}
	kid.Keys[0] = 99999 // violates the separator bound
	s.Set(root.Kids[0], encodePage(kid))
	if err := tr.Validate(); err == nil {
		t.Error("corruption not detected")
	}
}
