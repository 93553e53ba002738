package btree

import (
	"math/rand"
	"strings"
	"testing"

	"redotheory/internal/method"
	"redotheory/internal/model"
)

func TestSequentialAscendingInserts(t *testing.T) {
	// Ascending inserts are the worst case for rightmost splits.
	tr := New(&stateExec{s: model.NewState()}, GeneralizedSplit, 4, 1)
	for k := int64(0); k < 200; k++ {
		if err := tr.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	ks, err := tr.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(ks) != 200 || ks[0] != 0 || ks[199] != 199 {
		t.Errorf("keys = %d [%d..%d]", len(ks), ks[0], ks[len(ks)-1])
	}
}

func TestSequentialDescendingInserts(t *testing.T) {
	tr := New(&stateExec{s: model.NewState()}, PhysiologicalSplit, 4, 1)
	for k := int64(200); k > 0; k-- {
		if err := tr.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	ks, _ := tr.Keys()
	if len(ks) != 200 {
		t.Errorf("keys = %d", len(ks))
	}
}

func TestInsertDeleteMix(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tr := New(&stateExec{s: model.NewState()}, GeneralizedSplit, 6, 1)
	want := map[int64]bool{}
	for i := 0; i < 500; i++ {
		k := rng.Int63n(200)
		if rng.Float64() < 0.7 {
			if err := tr.Insert(k); err != nil {
				t.Fatal(err)
			}
			want[k] = true
		} else {
			if err := tr.Delete(k); err != nil {
				t.Fatal(err)
			}
			delete(want, k)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	ks, err := tr.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(ks) != len(want) {
		t.Fatalf("tree has %d keys, want %d", len(ks), len(want))
	}
	for _, k := range ks {
		if !want[k] {
			t.Fatalf("phantom key %d", k)
		}
	}
}

func TestNegativeKeys(t *testing.T) {
	tr := New(&stateExec{s: model.NewState()}, GeneralizedSplit, 4, 1)
	for _, k := range []int64{-5, 3, -100, 0, 42, -1} {
		if err := tr.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	ks, _ := tr.Keys()
	if ks[0] != -100 || ks[len(ks)-1] != 42 {
		t.Errorf("keys = %v", ks)
	}
}

func TestNewPanicsOnTinyOrder(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("order 1 accepted")
		}
	}()
	New(&stateExec{s: model.NewState()}, GeneralizedSplit, 1, 1)
}

func TestNextOpIDAdvances(t *testing.T) {
	tr := New(&stateExec{s: model.NewState()}, GeneralizedSplit, 4, 7)
	if tr.nextOp != 7 {
		t.Errorf("nextOp = %d", tr.nextOp)
	}
	if err := tr.Insert(1); err != nil {
		t.Fatal(err)
	}
	if tr.nextOp != 8 {
		t.Errorf("nextOp after insert = %d", tr.nextOp)
	}
	if tr.root != "bt-root" {
		t.Errorf("root = %s", tr.root)
	}
}

func TestLogBytesByKind(t *testing.T) {
	db := method.NewGenLSN(model.NewState())
	tr := New(db, GeneralizedSplit, 2, 1)
	for k := int64(1); k <= 10; k++ {
		if err := tr.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	// Bucket record sizes by operation kind: the name up to the first
	// '(' or '@'.
	kinds := make(map[string]int)
	for _, r := range db.Log().Records() {
		name := r.Op.Name()
		if i := strings.IndexAny(name, "(@"); i >= 0 {
			name = name[:i]
		}
		kinds[name] += r.SizeBytes()
	}
	if kinds["ins"] == 0 || kinds["split"] == 0 || kinds["trunc"] == 0 {
		t.Errorf("kinds = %v", kinds)
	}
}

func TestStrategyString(t *testing.T) {
	if PhysiologicalSplit.String() != "physiological-split" ||
		GeneralizedSplit.String() != "generalized-split" {
		t.Error("strategy names wrong")
	}
}

func TestSearchOnDanglingPointer(t *testing.T) {
	// Corrupt an internal pointer and confirm traversal errors rather
	// than panicking.
	s := model.NewState()
	tr := New(&stateExec{s: s}, GeneralizedSplit, 2, 1)
	for k := int64(1); k <= 6; k++ {
		if err := tr.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	root := mustDecode(s.Get(tr.root))
	if root.Leaf {
		t.Fatal("tree too small")
	}
	root.Kids[0] = "bt-nowhere"
	s.Set(tr.root, encodePage(root))
	if _, err := tr.Search(1); err == nil {
		t.Error("dangling pointer not reported by Search")
	}
	if _, err := tr.Keys(); err == nil {
		t.Error("dangling pointer not reported by Keys")
	}
	if err := tr.Validate(); err == nil {
		t.Error("dangling pointer not reported by Validate")
	}
}

func TestGroupLSNRunsBTree(t *testing.T) {
	// The grouplsn method executes both strategies (its ops allow any
	// shape), including generalized splits.
	rng := rand.New(rand.NewSource(9))
	keys := make([]int64, 60)
	for i := range keys {
		keys[i] = rng.Int63n(500)
	}
	crashRecoverTree(t, method.NewGroupLSN(model.NewState()), GeneralizedSplit, keys, rng)
}
