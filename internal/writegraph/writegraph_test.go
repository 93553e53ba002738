package writegraph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"redotheory/internal/conflict"
	"redotheory/internal/install"
	"redotheory/internal/model"
	"redotheory/internal/stategraph"
)

// build constructs the write graph for a history given in invocation
// order, from the given initial state.
func build(t testing.TB, s0 *model.State, ops ...*model.Op) *Graph {
	t.Helper()
	cg := conflict.FromOps(ops...)
	sg, err := stategraph.FromConflict(cg, s0)
	if err != nil {
		t.Fatal(err)
	}
	return FromInstallation(install.FromConflict(cg), sg)
}

// figure7 returns the running example's write graph: O: x←x+1,
// P: y←x+1, Q: x←x+1 from x=1.
func figure7(t testing.TB) *Graph {
	s0 := model.NewState()
	s0.SetInt("x", 1)
	return build(t, s0,
		model.Incr(1, "x", 1),
		model.CopyPlus(2, "y", "x", 1),
		model.Incr(3, "x", 1))
}

func TestFromInstallationShape(t *testing.T) {
	g := figure7(t)
	if g.NumNodes() != 3 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	nO, nP, nQ := g.NodeOf(1), g.NodeOf(2), g.NodeOf(3)
	if !g.DAG().HasEdge(nO, nQ) || !g.DAG().HasEdge(nP, nQ) {
		t.Error("installation edges missing")
	}
	if g.DAG().HasEdge(nO, nP) {
		t.Error("dropped WR edge present in write graph")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := g.CheckExplainable(); err != nil {
		t.Fatalf("fresh write graph must be explainable: %v", err)
	}
}

func TestInstallRespectsPrefix(t *testing.T) {
	g := figure7(t)
	nO, nP, nQ := g.NodeOf(1), g.NodeOf(2), g.NodeOf(3)
	if err := g.Install(nQ); err == nil {
		t.Error("installed Q before its predecessors")
	}
	if err := g.Install(nP); err != nil {
		t.Errorf("P is minimal (WR edge dropped), install failed: %v", err)
	}
	if err := g.Install(nP); err == nil {
		t.Error("double install accepted")
	}
	if err := g.Install(nO); err != nil {
		t.Error(err)
	}
	if err := g.Install(nQ); err != nil {
		t.Error(err)
	}
	if err := g.CheckExplainable(); err != nil {
		t.Error(err)
	}
	s := g.DeterminedState()
	if model.AsInt(s.Get("x")) != 3 || model.AsInt(s.Get("y")) != 3 {
		t.Errorf("fully installed state = %v, want x=3 y=3", s)
	}
}

func TestFigure7Collapse(t *testing.T) {
	// Collapsing the x-writers O and Q forces y (operation P) to be
	// written to the stable state before x — the Figure 7 ordering.
	g := figure7(t)
	nO, nP, nQ := g.NodeOf(1), g.NodeOf(2), g.NodeOf(3)
	oq, err := g.Collapse(nO, nQ)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 {
		t.Fatalf("nodes = %d, want 2", g.NumNodes())
	}
	if !g.DAG().HasEdge(nP, oq) {
		t.Error("edge P→{O,Q} missing after collapse")
	}
	n := g.Node(oq)
	if v := n.Writes()["x"]; model.AsInt(v) != 3 {
		t.Errorf("collapsed node writes x=%s, want 3 (Q's value, the later writer)", v)
	}
	if len(n.Ops()) != 2 || !n.Ops().Has(1) || !n.Ops().Has(3) {
		t.Errorf("collapsed ops = %v", n.Ops())
	}
	// The cache manager must now write y before x.
	if err := g.Install(oq); err == nil {
		t.Error("installed {O,Q} before P")
	}
	if err := g.Install(nP); err != nil {
		t.Fatal(err)
	}
	if err := g.CheckExplainable(); err != nil {
		t.Errorf("state after installing P: %v", err)
	}
	if err := g.Install(oq); err != nil {
		t.Fatal(err)
	}
	if err := g.CheckExplainable(); err != nil {
		t.Error(err)
	}
}

func TestSection5EFGAtomicInstall(t *testing.T) {
	// E: x←y+1, F: y←x+1, G: x←x+1. Installing x's final value alone or
	// y's alone violates installation edges; E,F,G must go atomically
	// (here: collapse F,G after E, or all three).
	g := build(t, model.NewState(),
		model.CopyPlus(1, "x", "y", 1),
		model.CopyPlus(2, "y", "x", 1),
		model.Incr(3, "x", 1))
	nE, nF, nG := g.NodeOf(1), g.NodeOf(2), g.NodeOf(3)
	if err := g.Install(nG); err == nil {
		t.Error("G installed before E,F")
	}
	if err := g.Install(nF); err == nil {
		t.Error("F installed before E")
	}
	merged, err := g.Collapse(nE, nF, nG)
	if err != nil {
		t.Fatal(err)
	}
	n := g.Node(merged)
	if model.AsInt(n.Writes()["x"]) != 2 || model.AsInt(n.Writes()["y"]) != 2 {
		t.Errorf("merged writes = %v, want x=2 y=2", n.Writes())
	}
	if err := g.Install(merged); err != nil {
		t.Fatal(err)
	}
	if err := g.CheckExplainable(); err != nil {
		t.Error(err)
	}
	s := g.DeterminedState()
	if model.AsInt(s.Get("x")) != 2 || model.AsInt(s.Get("y")) != 2 {
		t.Errorf("state = %v", s)
	}
}

func TestSection5HJRemoveWrite(t *testing.T) {
	// H: ⟨x++;y++⟩ then J: y←0. J's blind write leaves y unexposed after
	// H, so H can be installed by writing x alone.
	g := build(t, model.NewState(),
		model.IncrBoth(1, "x", 1, "y", 1),
		model.AssignConst(2, "y", model.IntVal(0)))
	nH, nJ := g.NodeOf(1), g.NodeOf(2)
	if err := g.RemoveWrite(nH, "y"); err != nil {
		t.Fatalf("remove-write of unexposed y rejected: %v", err)
	}
	if _, still := g.Node(nH).Writes()["y"]; still {
		t.Error("y still present after removal")
	}
	if err := g.Install(nH); err != nil {
		t.Fatal(err)
	}
	if err := g.CheckExplainable(); err != nil {
		t.Errorf("after installing H without y: %v", err)
	}
	s := g.DeterminedState()
	if model.AsInt(s.Get("x")) != 1 || model.AsInt(s.Get("y")) != 0 {
		t.Errorf("state = %v, want x=1 y untouched", s)
	}
	if err := g.Install(nJ); err != nil {
		t.Fatal(err)
	}
	if err := g.CheckExplainable(); err != nil {
		t.Error(err)
	}
	if got := model.AsInt(g.DeterminedState().Get("y")); got != 0 {
		t.Errorf("y = %d, want 0 (J's value)", got)
	}
}

func TestRemoveWriteRejectedWithoutFollowingBlindWriter(t *testing.T) {
	// A lone write of x cannot be removed: the final state needs it.
	g := build(t, model.NewState(), model.Incr(1, "x", 1))
	if err := g.RemoveWrite(g.NodeOf(1), "x"); err == nil {
		t.Error("remove-write accepted with no following writer")
	}
	// A following writer that READS x does not help either (x exposed).
	g2 := build(t, model.NewState(), model.Incr(1, "x", 1), model.Incr(2, "x", 1))
	if err := g2.RemoveWrite(g2.NodeOf(1), "x"); err == nil {
		t.Error("remove-write accepted though the follower reads x")
	}
}

func TestRemoveWriteRejectedWithUninstalledReaderOfVersion(t *testing.T) {
	// w writes x; r reads that version; b blind-writes x afterwards.
	// Removing w's write must be rejected while r is uninstalled, and
	// allowed once r's node is installed... but r's node can only install
	// after w's (WR dropped: r IS installable first; then removal is
	// legal because the only reader of w's version is installed).
	w := model.AssignConst(1, "x", model.IntVal(7))
	r := model.CopyPlus(2, "y", "x", 0)
	b := model.AssignConst(3, "x", model.IntVal(9))
	g := build(t, model.NewState(), w, r, b)
	if err := g.RemoveWrite(g.NodeOf(1), "x"); err == nil {
		t.Fatal("remove-write accepted with uninstalled reader of the version")
	}
	// Install r's node (minimal: its WR edge from w was dropped; the RW
	// edge r→b keeps b after it).
	if err := g.Install(g.NodeOf(2)); err != nil {
		t.Fatal(err)
	}
	if err := g.RemoveWrite(g.NodeOf(1), "x"); err != nil {
		t.Fatalf("remove-write rejected after reader installed: %v", err)
	}
	if err := g.Install(g.NodeOf(1)); err != nil {
		t.Fatal(err)
	}
	if err := g.CheckExplainable(); err != nil {
		t.Error(err)
	}
}

func TestAddEdgeConstraints(t *testing.T) {
	g := figure7(t)
	nO, nP := g.NodeOf(1), g.NodeOf(2)
	// Constrain O before P (beyond the installation graph).
	if err := g.AddEdge(nO, nP); err != nil {
		t.Fatal(err)
	}
	if err := g.Install(nP); err == nil {
		t.Error("P installable despite added edge")
	}
	// Cycle rejected.
	if err := g.AddEdge(nP, nO); err == nil {
		t.Error("cycle accepted")
	}
	// Edge into an installed node rejected.
	if err := g.Install(nO); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(g.NodeOf(3), nO); err == nil {
		t.Error("edge into installed node accepted")
	}
	// Idempotent re-add is fine.
	if err := g.AddEdge(nO, nP); err != nil {
		t.Error(err)
	}
}

func TestCollapseRejectsCycle(t *testing.T) {
	// E→F→G chain: collapsing {E,G} around F would create a cycle.
	g := build(t, model.NewState(),
		model.CopyPlus(1, "x", "y", 1),
		model.CopyPlus(2, "y", "x", 1),
		model.Incr(3, "x", 1))
	if _, err := g.Collapse(g.NodeOf(1), g.NodeOf(3)); err == nil {
		t.Error("cycle-creating collapse accepted")
	}
	if g.NumNodes() != 3 {
		t.Error("failed collapse mutated the graph")
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestCollapseWithInitialNodeInstalls(t *testing.T) {
	// Collapsing an uninstalled minimal node into the installed initial
	// node is how systems install operations (Section 6).
	g := figure7(t)
	init := g.WithInitialNode()
	if init == 0 || g.InitialNode() != init {
		t.Fatal("initial node not created")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	nP := g.NodeOf(2)
	merged, err := g.Collapse(init, nP)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Node(merged).Installed() {
		t.Error("merged node lost installed flag")
	}
	if err := g.CheckExplainable(); err != nil {
		t.Errorf("after installing P via collapse: %v", err)
	}
	s := g.DeterminedState()
	if model.AsInt(s.Get("y")) != 3 || model.AsInt(s.Get("x")) != 1 {
		t.Errorf("state = %v, want x=1 y=3", s)
	}
	// Installing Q's node by collapse must fail while O's is outside.
	if _, err := g.Collapse(merged, g.NodeOf(3)); err == nil {
		t.Error("collapse installed Q ahead of O")
	}
}

func TestCollapseErrors(t *testing.T) {
	g := figure7(t)
	if _, err := g.Collapse(g.NodeOf(1)); err == nil {
		t.Error("single-node collapse accepted")
	}
	if _, err := g.Collapse(g.NodeOf(1), g.NodeOf(1)); err == nil {
		t.Error("duplicate collapse accepted")
	}
	if _, err := g.Collapse(g.NodeOf(1), 999); err == nil {
		t.Error("unknown node accepted")
	}
}

func TestInstallErrors(t *testing.T) {
	g := figure7(t)
	if err := g.Install(999); err == nil {
		t.Error("unknown node installed")
	}
}

func TestRemoveWriteErrors(t *testing.T) {
	g := figure7(t)
	if err := g.RemoveWrite(999, "x"); err == nil {
		t.Error("unknown node accepted")
	}
	if err := g.RemoveWrite(g.NodeOf(2), "x"); err == nil {
		t.Error("node does not write x")
	}
	if err := g.Install(g.NodeOf(2)); err != nil {
		t.Fatal(err)
	}
	if err := g.RemoveWrite(g.NodeOf(2), "y"); err == nil {
		t.Error("remove-write on installed node accepted")
	}
}

func TestCorollary5Property(t *testing.T) {
	// Drive random valid write-graph mutations; after every successful
	// mutation the structural invariants and explainability must hold,
	// and a simulated crash (junk in unexposed variables) must recover.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := randomOps(rng, 10, 4)
		s0 := randomState(rng, 4)
		cg := conflict.FromOps(ops...)
		sg, err := stategraph.FromConflict(cg, s0)
		if err != nil {
			return false
		}
		ig := install.FromConflict(cg)
		g := FromInstallation(ig, sg)
		for step := 0; step < 30; step++ {
			ids := g.NodeIDs()
			switch rng.Intn(4) {
			case 0: // install a minimal node
				if m := g.UninstalledMinimal(); len(m) > 0 {
					if err := g.Install(m[rng.Intn(len(m))]); err != nil {
						return false // minimal nodes must be installable
					}
				}
			case 1: // random edge (may be rejected)
				u, v := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
				if u != v {
					_ = g.AddEdge(u, v)
				}
			case 2: // random pairwise collapse (may be rejected)
				u, v := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
				if u != v {
					_, _ = g.Collapse(u, v)
				}
			case 3: // random remove-write (may be rejected)
				n := g.Node(ids[rng.Intn(len(ids))])
				if vars := n.Vars(); len(vars) > 0 {
					_ = g.RemoveWrite(n.ID(), vars[rng.Intn(len(vars))])
				}
			}
			if err := g.Validate(); err != nil {
				return false
			}
			if err := g.CheckExplainable(); err != nil {
				return false
			}
		}
		// Crash: determined state plus junk in unexposed variables must
		// replay to the final state.
		installed := g.InstalledOps()
		state := g.DeterminedState()
		for _, x := range install.UnexposedVars(cg, installed) {
			state.SetInt(x, rng.Int63n(1<<40)+99)
		}
		return ig.PotentiallyRecoverable(sg, installed, state) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestFullInstallDrain(t *testing.T) {
	// Installing minimal nodes until none remain must reach the final
	// state, for random histories.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := randomOps(rng, 12, 4)
		s0 := randomState(rng, 4)
		cg := conflict.FromOps(ops...)
		sg, err := stategraph.FromConflict(cg, s0)
		if err != nil {
			return false
		}
		g := FromInstallation(install.FromConflict(cg), sg)
		for {
			m := g.UninstalledMinimal()
			if len(m) == 0 {
				break
			}
			if err := g.Install(m[rng.Intn(len(m))]); err != nil {
				return false
			}
		}
		return g.DeterminedState().Equal(sg.FinalState())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
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
