package workload

import (
	"math/rand"
	"testing"

	"redotheory/internal/conflict"
	"redotheory/internal/graph"
	"redotheory/internal/install"
	"redotheory/internal/model"
	"redotheory/internal/stategraph"
)

// mustApply applies an operation known to be well-formed.
func mustApply(s *model.State, op *model.Op) {
	if _, err := s.Apply(op); err != nil {
		panic(err)
	}
}

func TestPagesAndInitialState(t *testing.T) {
	ps := Pages(3)
	if len(ps) != 3 || ps[0] != "pg00" || ps[2] != "pg02" {
		t.Errorf("Pages = %v", ps)
	}
	s := InitialState(ps)
	if model.AsInt(s.Get(ps[1])) != 1001 {
		t.Errorf("initial value = %d", model.AsInt(s.Get(ps[1])))
	}
}

func TestSinglePageShape(t *testing.T) {
	ps := Pages(4)
	for _, op := range SinglePage(20, ps, 1, true) {
		if len(op.Writes()) != 1 || len(op.Reads()) != 1 || op.Reads()[0] != op.Writes()[0] {
			t.Fatalf("op %s is not single-page", op)
		}
	}
}

func TestReadManyWriteOneShape(t *testing.T) {
	ps := Pages(6)
	sawMultiRead := false
	for _, op := range ReadManyWriteOne(50, ps, 3, 2) {
		if len(op.Writes()) != 1 {
			t.Fatalf("op %s writes %d pages", op, len(op.Writes()))
		}
		if len(op.Reads()) > 1 {
			sawMultiRead = true
		}
	}
	if !sawMultiRead {
		t.Error("generator never produced a multi-read op")
	}
}

func TestBlindWritesShape(t *testing.T) {
	for _, op := range blindWrites(20, Pages(3), 3) {
		if len(op.Reads()) != 0 || len(op.Writes()) != 1 {
			t.Fatalf("op %s is not a blind single-page write", op)
		}
	}
}

func TestAnyShapeWritesNonEmpty(t *testing.T) {
	for _, op := range anyShape(50, Pages(4), 4) {
		if len(op.Writes()) == 0 {
			t.Fatal("empty write set")
		}
	}
}

func TestBankTransfersDeterministicAndConserving(t *testing.T) {
	ps := Pages(4)
	ops := BankTransfers(15, ps, 9)
	s := InitialState(ps)
	var before int64
	for _, p := range ps {
		before += model.AsInt(s.Get(p))
	}
	for _, op := range ops {
		mustApply(s, op)
	}
	var after int64
	for _, p := range ps {
		after += model.AsInt(s.Get(p))
	}
	if before != after {
		t.Errorf("transfers do not conserve: %d -> %d", before, after)
	}
	// Determinism: same seed, same ops, same result.
	s2 := InitialState(ps)
	for _, op := range BankTransfers(15, ps, 9) {
		mustApply(s2, op)
	}
	if !s.Equal(s2) {
		t.Error("generator not deterministic")
	}
}

func TestForMethod(t *testing.T) {
	ps := Pages(3)
	for _, name := range []string{"physiological", "genlsn", "physical", "logical"} {
		ops, err := ForMethod(name, 5, ps, 1)
		if err != nil || len(ops) != 5 {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := ForMethod("nope", 5, ps, 1); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestScenariosMatchPaperVerdicts(t *testing.T) {
	for _, sc := range All() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			cg := conflict.FromOps(sc.Ops...)
			ig := install.FromConflict(cg)
			sg, err := stategraph.FromConflict(cg, sc.Initial)
			if err != nil {
				t.Fatal(err)
			}
			if sc.CrashState == nil {
				return // structural scenarios: nothing installed
			}
			installed := graph.NewSet(sc.Installed...)
			err = ig.PotentiallyRecoverable(sg, installed, sc.CrashState)
			if sc.Recoverable && err != nil {
				t.Errorf("paper says recoverable, library says: %v", err)
			}
			if !sc.Recoverable && err == nil {
				t.Error("paper says unrecoverable, library recovered it")
			}
		})
	}
}

func TestScenario1NoPrefixExplains(t *testing.T) {
	// Stronger than the verdict: NO installation prefix explains
	// Scenario 1's crash state.
	sc := Scenario1()
	cg := conflict.FromOps(sc.Ops...)
	ig := install.FromConflict(cg)
	sg, err := stategraph.FromConflict(cg, sc.Initial)
	if err != nil {
		t.Fatal(err)
	}
	prefixes := []graph.Set[model.OpID]{
		graph.NewSet[model.OpID](),
		graph.NewSet[model.OpID](1),
		graph.NewSet[model.OpID](2),
		graph.NewSet[model.OpID](1, 2),
	}
	for _, pre := range prefixes {
		if err := ig.PotentiallyRecoverable(sg, pre, sc.CrashState); err == nil {
			t.Errorf("prefix %v recovered the unrecoverable state", pre)
		}
	}
}

func TestHotPageShape(t *testing.T) {
	ps := Pages(32)
	ops := HotPage(400, ps, 5)
	counts := map[model.Var]int{}
	bursts := 0
	for i, op := range ops {
		if len(op.Writes()) != 1 || len(op.Reads()) != 1 || op.Reads()[0] != op.Writes()[0] {
			t.Fatalf("op %s is not single-page", op)
		}
		counts[op.Writes()[0]]++
		if i > 0 && op.Writes()[0] == ops[i-1].Writes()[0] {
			bursts++
		}
	}
	// Zipfian skew: the hottest page must clearly beat a uniform share.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if uniform := len(ops) / len(ps); max <= 2*uniform {
		t.Errorf("hottest page got %d of %d ops — no visible skew (uniform share %d)", max, len(ops), uniform)
	}
	if bursts == 0 {
		t.Error("generator never produced a same-page burst")
	}
	// Determinism: same seed, identical page sequence.
	again := HotPage(400, ps, 5)
	for i := range ops {
		if ops[i].Writes()[0] != again[i].Writes()[0] {
			t.Fatalf("op %d page diverges across identical seeds", i)
		}
	}
}

func TestHeavyHotPageTracksHotPageSequence(t *testing.T) {
	ps := Pages(16)
	light := HotPage(100, ps, 9)
	heavy := HeavyHotPage(100, ps, 3, 9)
	for i := range light {
		if light[i].Writes()[0] != heavy[i].Writes()[0] {
			t.Fatalf("op %d: heavy generator picked %s, light picked %s",
				i, heavy[i].Writes()[0], light[i].Writes()[0])
		}
	}
	// The heavy compute is deterministic per seed.
	s1, s2 := InitialState(ps), InitialState(ps)
	for _, op := range heavy {
		mustApply(s1, op)
	}
	for _, op := range HeavyHotPage(100, ps, 3, 9) {
		mustApply(s2, op)
	}
	if !s1.Equal(s2) {
		t.Error("heavy generator not deterministic")
	}
}

func TestGeneratorsOnDegenerateFixtures(t *testing.T) {
	// rand.NewZipf(rng, s, v, uint64(len(pages)-1)) collapses to imax=0
	// for one page and underflows to ^uint64(0) for zero pages (NewZipf
	// then returns nil and the first pick panics). Every generator must
	// survive pages ∈ {0, 1, 2}: empty fixtures yield empty histories,
	// one page yields that page for every op.
	gens := []struct {
		name string
		gen  func(n int, pages []model.Var, seed int64) []*model.Op
	}{
		{"single-page/uniform", func(n int, ps []model.Var, seed int64) []*model.Op { return SinglePage(n, ps, seed, false) }},
		{"single-page/skew", func(n int, ps []model.Var, seed int64) []*model.Op { return SinglePage(n, ps, seed, true) }},
		{"rmw", func(n int, ps []model.Var, seed int64) []*model.Op { return ReadManyWriteOne(n, ps, 3, seed) }},
		{"any", anyShape},
		{"blind", blindWrites},
		{"heavy-single", func(n int, ps []model.Var, seed int64) []*model.Op { return HeavySinglePage(n, ps, 2, seed) }},
		{"hot-page", HotPage},
		{"heavy-hot", func(n int, ps []model.Var, seed int64) []*model.Op { return HeavyHotPage(n, ps, 2, seed) }},
	}
	for _, g := range gens {
		for _, npages := range []int{0, 1, 2} {
			pages := Pages(npages)
			ops := g.gen(8, pages, 7)
			if npages == 0 {
				if len(ops) != 0 {
					t.Errorf("%s over 0 pages: got %d ops, want none", g.name, len(ops))
				}
				continue
			}
			if len(ops) != 8 {
				t.Errorf("%s over %d pages: got %d ops, want 8", g.name, npages, len(ops))
			}
			legal := graph.NewSet(pages...)
			for _, op := range ops {
				for _, v := range append(op.Reads(), op.Writes()...) {
					if !legal.Has(v) {
						t.Fatalf("%s over %d pages: op %s touches unknown page %s", g.name, npages, op, v)
					}
				}
			}
		}
	}
	// BankTransfers needs two distinct accounts; below that it must not
	// spin forever looking for one.
	for _, npages := range []int{0, 1, 2} {
		ops := BankTransfers(4, Pages(npages), 7)
		if npages < 2 && len(ops) != 0 {
			t.Errorf("BankTransfers over %d pages: got %d ops, want none", npages, len(ops))
		}
		if npages == 2 && len(ops) != 4 {
			t.Errorf("BankTransfers over 2 pages: got %d ops, want 4", npages)
		}
	}
}

func TestZipfPickerDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	one := Pages(1)
	pick := zipf(rng, 1.3, 1, one)
	for i := 0; i < 5; i++ {
		if p := pick(); p != one[0] {
			t.Fatalf("single-page Zipf picked %s", p)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Zipf over zero pages did not panic")
		}
	}()
	zipf(rng, 1.3, 1, nil)
}

func TestShapesForIncludeHotPage(t *testing.T) {
	total := 0
	for _, name := range []string{"physiological", "physiological+dpt", "genlsn", "genlsn+mv", "physical", "grouplsn", "logical"} {
		shapes, err := ShapesFor(name)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, sh := range shapes {
			if sh.Name == "hot-page/zipf" {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: shape list %d lacks hot-page/zipf", name, len(shapes))
		}
		total += len(shapes)
	}
	if total != 26 {
		t.Errorf("total shapes = %d, want 26 (the fuzzer's history count)", total)
	}
}
