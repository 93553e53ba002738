package install

import (
	"math/rand"
	"testing"
	"testing/quick"

	"redotheory/internal/conflict"
	"redotheory/internal/graph"
	"redotheory/internal/model"
	"redotheory/internal/stategraph"
)

// figure5 builds the running example (O: x←x+1, P: y←x+1, Q: x←x+1 from
// x=1): the conflict graph has edges O→P (WR), O→Q (WW|WR), P→Q (RW); the
// installation graph drops O→P.
func figure5() (*conflict.Graph, *Graph, *stategraph.Graph) {
	o := model.Incr(1, "x", 1)
	p := model.CopyPlus(2, "y", "x", 1)
	q := model.Incr(3, "x", 1)
	cg := conflict.FromOps(o, p, q)
	s0 := model.NewState()
	s0.SetInt("x", 1)
	sg, err := stategraph.FromConflict(cg, s0)
	if err != nil {
		panic(err)
	}
	return cg, FromConflict(cg), sg
}

func TestFigure5EdgeRemoval(t *testing.T) {
	_, ig, _ := figure5()
	if ig.DAG().HasEdge(1, 2) {
		t.Error("pure WR edge O→P survived in the installation graph")
	}
	if !ig.DAG().HasEdge(1, 3) {
		t.Error("O→Q (WW|WR) must survive")
	}
	if !ig.DAG().HasEdge(2, 3) {
		t.Error("P→Q (RW) must survive")
	}
}

func TestFigure5PrefixP(t *testing.T) {
	// {P} is a prefix of the installation graph but not of the conflict
	// graph — the extra recoverable state of Figure 5.
	cg, ig, _ := figure5()
	p := graph.NewSet[model.OpID](2)
	if !ig.IsPrefix(p) {
		t.Error("{P} should be an installation graph prefix")
	}
	if cg.DAG().IsPrefix(p) {
		t.Error("{P} must not be a conflict graph prefix")
	}
}

func TestFigure5MinimalUninstalled(t *testing.T) {
	_, ig, _ := figure5()
	// After {O}: minimal uninstalled is P.
	if got := ig.MinimalUninstalled(graph.NewSet[model.OpID](1)); len(got) != 1 || got[0] != 2 {
		t.Errorf("after {O}: %v, want [2]", got)
	}
	// After {P}: minimal uninstalled is O.
	if got := ig.MinimalUninstalled(graph.NewSet[model.OpID](2)); len(got) != 1 || got[0] != 1 {
		t.Errorf("after {P}: %v, want [1]", got)
	}
}

func TestScenario1Unrecoverable(t *testing.T) {
	// Figure 1: A: x←y+1 then B: y←2 from x=y=0. Installing B alone
	// violates the read-write edge A→B, which survives in the
	// installation graph, so {B} is not a prefix and the resulting state
	// is not explainable.
	a := model.CopyPlus(1, "x", "y", 1)
	b := model.AssignConst(2, "y", model.IntVal(2))
	cg := conflict.FromOps(a, b)
	ig := FromConflict(cg)
	sg, err := stategraph.FromConflict(cg, model.NewState())
	if err != nil {
		t.Fatal(err)
	}
	// State with only B's change installed: x=0 (stale), y=2.
	s := model.StateOf(map[model.Var]model.Value{"y": model.IntVal(2)})
	bOnly := graph.NewSet[model.OpID](2)
	if ig.IsPrefix(bOnly) {
		t.Fatal("{B} must not be an installation prefix")
	}
	errExp := ig.Explains(sg, bOnly, s)
	if errExp == nil {
		t.Fatal("{B} should not explain the state")
	}
	f, ok := errExp.(*ExplainFailure)
	if !ok || !f.NotPrefixSet || f.NotPrefix != [2]model.OpID{1, 2} {
		t.Errorf("failure = %v, want prefix violation on edge 1→2", errExp)
	}
	// No prefix explains this state: x should be 1 after A, but replaying
	// A now reads y=2 and would write x=3.
	for _, pre := range []graph.Set[model.OpID]{
		graph.NewSet[model.OpID](),
		graph.NewSet[model.OpID](1),
		graph.NewSet[model.OpID](1, 2),
	} {
		if err := ig.PotentiallyRecoverable(sg, pre, s); err == nil {
			t.Errorf("state %v should not be recoverable via prefix %v", s, pre)
		}
	}
}

func TestScenario2Recoverable(t *testing.T) {
	// Figure 2: B: y←2 then A: x←y+1 from x=y=0. Installing A's change
	// (x=3) before B violates only the write-read edge B→A, so {A} is an
	// installation prefix and the state is recoverable by replaying B.
	b := model.AssignConst(1, "y", model.IntVal(2))
	a := model.CopyPlus(2, "x", "y", 1)
	cg := conflict.FromOps(b, a)
	ig := FromConflict(cg)
	sg, err := stategraph.FromConflict(cg, model.NewState())
	if err != nil {
		t.Fatal(err)
	}
	s := model.StateOf(map[model.Var]model.Value{"x": model.IntVal(3)}) // y still 0
	aOnly := graph.NewSet[model.OpID](2)
	if !ig.IsPrefix(aOnly) {
		t.Fatal("{A} must be an installation prefix")
	}
	if err := ig.Explains(sg, aOnly, s); err != nil {
		t.Fatalf("{A} should explain the state: %v", err)
	}
	rec, err := ig.Replay(sg, aOnly, s)
	if err != nil {
		t.Fatal(err)
	}
	if model.AsInt(rec.Get("x")) != 3 || model.AsInt(rec.Get("y")) != 2 {
		t.Errorf("recovered = %v, want x=3 y=2", rec)
	}
	if err := ig.PotentiallyRecoverable(sg, aOnly, s); err != nil {
		t.Error(err)
	}
}

func TestScenario3ExposedVariables(t *testing.T) {
	// Figure 3: C: ⟨x←x+1; y←y+1⟩ then D: x←y+1 from x=y=0. Only C's
	// change to y reaches the state. C's change to x is unexposed (D
	// blind-writes... no — D *reads* y and writes x; x's minimal outside
	// accessor is D, which writes x without reading it), so the state
	// {y=1} is explained by {C} and recovery replays D.
	c := model.IncrBoth(1, "x", 1, "y", 1)
	d := model.CopyPlus(2, "x", "y", 1)
	cg := conflict.FromOps(c, d)
	ig := FromConflict(cg)
	sg, err := stategraph.FromConflict(cg, model.NewState())
	if err != nil {
		t.Fatal(err)
	}
	cOnly := graph.NewSet[model.OpID](1)
	if !Exposed(cg, cOnly, "y") {
		t.Error("y must be exposed by {C}: D reads it")
	}
	if Exposed(cg, cOnly, "x") {
		t.Error("x must be unexposed by {C}: D overwrites it without reading")
	}
	// State with only y installed — x retains its pre-crash garbage 0.
	s := model.StateOf(map[model.Var]model.Value{"y": model.IntVal(1)})
	if err := ig.Explains(sg, cOnly, s); err != nil {
		t.Fatalf("{C} should explain {y=1}: %v", err)
	}
	rec, err := ig.Replay(sg, cOnly, s)
	if err != nil {
		t.Fatal(err)
	}
	if model.AsInt(rec.Get("x")) != 2 || model.AsInt(rec.Get("y")) != 1 {
		t.Errorf("recovered = %v, want x=2 y=1", rec)
	}
	// Even total garbage in x is explained, because x is unexposed.
	junk := model.StateOf(map[model.Var]model.Value{"y": model.IntVal(1), "x": "junk"})
	if err := ig.Explains(sg, cOnly, junk); err != nil {
		t.Errorf("junk in unexposed x should still be explained: %v", err)
	}
}

func TestExposedNoOutsideAccess(t *testing.T) {
	cg, _, _ := figure5()
	all := graph.NewSet[model.OpID](1, 2, 3)
	if !Exposed(cg, all, "x") || !Exposed(cg, all, "y") {
		t.Error("everything exposed when all ops installed")
	}
	// A variable no operation accesses is exposed by any set.
	if !Exposed(cg, graph.NewSet[model.OpID](), "zz") {
		t.Error("untouched variable must be exposed")
	}
}

func TestExposedFlipExample(t *testing.T) {
	// Section 2.3: exposure can flip as I grows. H: ⟨x++;y++⟩ then
	// J: y←0. After I={}: minimal outside accessor of y is H, which
	// reads y → exposed. After I={H}: minimal outside accessor is J,
	// which blind-writes y → unexposed. After I={H,J}: exposed again.
	h := model.IncrBoth(1, "x", 1, "y", 1)
	j := model.AssignConst(2, "y", model.IntVal(0))
	cg := conflict.FromOps(h, j)
	if !Exposed(cg, graph.NewSet[model.OpID](), "y") {
		t.Error("y exposed by {} (H reads it)")
	}
	if Exposed(cg, graph.NewSet[model.OpID](1), "y") {
		t.Error("y unexposed by {H} (J blind-writes it)")
	}
	if !Exposed(cg, graph.NewSet[model.OpID](1, 2), "y") {
		t.Error("y exposed by {H,J}")
	}
}

func TestExposedAgreesWithReachability(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := randomOps(rng, 14, 4)
		cg := conflict.FromOps(ops...)
		ig := FromConflict(cg)
		installed := randomInstallPrefix(rng, ig)
		for _, x := range cg.Vars() {
			if Exposed(cg, installed, x) != ExposedByReachability(cg, installed, x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTheorem3PotentialRecoverability(t *testing.T) {
	// The central property: for random histories, ANY installation graph
	// prefix, the determined values on exposed variables, and arbitrary
	// junk on unexposed variables, replaying the uninstalled operations in
	// conflict graph order reaches the final state.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := randomOps(rng, 16, 5)
		s0 := randomState(rng, 5)
		cg := conflict.FromOps(ops...)
		ig := FromConflict(cg)
		sg, err := stategraph.FromConflict(cg, s0)
		if err != nil {
			return false
		}
		installed := randomInstallPrefix(rng, ig)
		state, err := ig.DeterminedState(sg, installed)
		if err != nil {
			return false
		}
		// Scribble junk over unexposed variables: recovery must not care.
		for _, x := range UnexposedVars(cg, installed) {
			state.SetInt(x, rng.Int63n(1<<40)+7777777)
		}
		return ig.PotentiallyRecoverable(sg, installed, state) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

func TestReplayDetectsCorruptExposedVariable(t *testing.T) {
	// Corrupting an exposed variable must be detected: either Explains
	// fails, or replay hits an inapplicable operation, or the final state
	// is wrong. PotentiallyRecoverable must never return nil.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := randomOps(rng, 12, 4)
		s0 := randomState(rng, 4)
		cg := conflict.FromOps(ops...)
		ig := FromConflict(cg)
		sg, err := stategraph.FromConflict(cg, s0)
		if err != nil {
			return false
		}
		installed := randomInstallPrefix(rng, ig)
		state, err := ig.DeterminedState(sg, installed)
		if err != nil {
			return false
		}
		exposed := ExposedVars(cg, installed)
		if len(exposed) == 0 {
			return true
		}
		x := exposed[rng.Intn(len(exposed))]
		state.Set(x, state.Get(x)+"corrupt")
		return ig.PotentiallyRecoverable(sg, installed, state) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestConflictPrefixesAreInstallationPrefixes(t *testing.T) {
	// "Prefixes of the installation graph include the prefixes of the
	// conflict graph" (Section 3.1) — the installation graph is a
	// subgraph, so every conflict prefix is an installation prefix.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := randomOps(rng, 14, 4)
		cg := conflict.FromOps(ops...)
		ig := FromConflict(cg)
		pre := randomConflictPrefix(rng, cg)
		return ig.IsPrefix(pre)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestApplicableFigure5(t *testing.T) {
	_, ig, sg := figure5()
	// In the state explained by {P} (y=2, x still initial 1), O is
	// applicable: it reads x=1 exactly as in the original execution.
	s := model.StateOf(map[model.Var]model.Value{"x": model.IntVal(1), "y": model.IntVal(2)})
	o := ig.Conflict().Op(1)
	if !ig.Applicable(sg, o, s) {
		t.Error("O should be applicable in the {P}-explained state")
	}
	// After O runs (x=2), Q reads x=2 as originally; O itself no longer is
	// applicable (x moved past the version it read).
	s.SetInt("x", 2)
	if ig.Applicable(sg, o, s) {
		t.Error("O should not be applicable once x has advanced")
	}
	q := ig.Conflict().Op(3)
	if !ig.Applicable(sg, q, s) {
		t.Error("Q should be applicable at x=2")
	}
}

func TestReplayRejectsNonPrefix(t *testing.T) {
	_, ig, sg := figure5()
	if _, err := ig.Replay(sg, graph.NewSet[model.OpID](3), model.NewState()); err == nil {
		t.Error("replay accepted a non-prefix installed set")
	}
}

func TestDeterminedStateFigure5(t *testing.T) {
	_, ig, sg := figure5()
	// Prefix {P}: y=3 (P wrote x+1 with x=2 from O... no — P read x=2?).
	// Execution order O,P,Q from x=1: O writes x=2, P reads x=2 writes
	// y=3, Q writes x=3. Prefix {P} determines y=3, x keeps initial 1.
	s, err := ig.DeterminedState(sg, graph.NewSet[model.OpID](2))
	if err != nil {
		t.Fatal(err)
	}
	if model.AsInt(s.Get("x")) != 1 || model.AsInt(s.Get("y")) != 3 {
		t.Errorf("determined by {P} = %v, want x=1 y=3", s)
	}
}

// --- helpers ---

func randomOps(rng *rand.Rand, n, k int) []*model.Op {
	vars := make([]model.Var, k)
	for i := range vars {
		vars[i] = model.Var(string(rune('a' + i)))
	}
	ops := make([]*model.Op, n)
	for i := range ops {
		var reads, writes []model.Var
		for _, v := range vars {
			if rng.Float64() < 0.3 {
				reads = append(reads, v)
			}
			if rng.Float64() < 0.25 {
				writes = append(writes, v)
			}
		}
		if len(writes) == 0 {
			writes = append(writes, vars[rng.Intn(k)])
		}
		ops[i] = model.ReadWrite(model.OpID(i+1), "w", reads, writes)
	}
	return ops
}

func randomState(rng *rand.Rand, k int) *model.State {
	s := model.NewState()
	for i := 0; i < k; i++ {
		if rng.Float64() < 0.7 {
			s.SetInt(model.Var(string(rune('a'+i))), rng.Int63n(100))
		}
	}
	return s
}

func randomInstallPrefix(rng *rand.Rand, ig *Graph) graph.Set[model.OpID] {
	return randomPrefixOf(rng, ig.DAG())
}

func randomConflictPrefix(rng *rand.Rand, cg *conflict.Graph) graph.Set[model.OpID] {
	return randomPrefixOf(rng, cg.DAG())
}

func randomPrefixOf(rng *rand.Rand, dag *graph.Graph[model.OpID]) graph.Set[model.OpID] {
	order, err := dag.TopoOrder()
	if err != nil {
		panic(err)
	}
	s := graph.NewSet[model.OpID]()
	for _, k := range order {
		ok := true
		for _, p := range dag.Preds(k) {
			if !s.Has(p) {
				ok = false
				break
			}
		}
		if ok && rng.Float64() < 0.6 {
			s.Add(k)
		}
	}
	return s
}
