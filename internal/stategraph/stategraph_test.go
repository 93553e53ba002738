package stategraph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"redotheory/internal/conflict"
	"redotheory/internal/graph"
	"redotheory/internal/model"
)

// figure4 builds the running example: O: x←x+1, P: y←x+1, Q: x←x+1 from
// x=1, y=0 — chosen so the determined states match Figure 4's rectangles
// (x=1; then x=2; then x=2,y=3; then x=3,y=3).
func figure4() (*conflict.Graph, *model.State) {
	o := model.Incr(1, "x", 1)
	p := model.CopyPlus(2, "y", "x", 1)
	q := model.Incr(3, "x", 1)
	s0 := model.NewState()
	s0.SetInt("x", 1)
	return conflict.FromOps(o, p, q), s0
}

func TestFromConflictFigure4(t *testing.T) {
	cg, s0 := figure4()
	g, err := FromConflict(cg, s0)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	no, np, nq := g.NodeOf(1), g.NodeOf(2), g.NodeOf(3)
	if v, _ := no.WriteValue("x"); model.AsInt(v) != 2 {
		t.Errorf("O writes x=%s, want 2", v)
	}
	if v, _ := np.WriteValue("y"); model.AsInt(v) != 3 {
		t.Errorf("P writes y=%s, want 3", v)
	}
	if v, _ := nq.WriteValue("x"); model.AsInt(v) != 3 {
		t.Errorf("Q writes x=%s, want 3", v)
	}
}

func TestDeterminedStatesFigure4(t *testing.T) {
	cg, s0 := figure4()
	g, err := FromConflict(cg, s0)
	if err != nil {
		t.Fatal(err)
	}
	no, np, nq := g.NodeOf(1).ID(), g.NodeOf(2).ID(), g.NodeOf(3).ID()

	cases := []struct {
		name   string
		prefix graph.Set[NodeID]
		x, y   int64
	}{
		{"empty", graph.NewSet[NodeID](), 1, 0},
		{"O", graph.NewSet(no), 2, 0},
		{"O,P", graph.NewSet(no, np), 2, 3},
		{"O,P,Q", graph.NewSet(no, np, nq), 3, 3},
	}
	for _, c := range cases {
		s, err := g.DeterminedState(c.prefix)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if model.AsInt(s.Get("x")) != c.x || model.AsInt(s.Get("y")) != c.y {
			t.Errorf("%s: state = %v, want x=%d y=%d", c.name, s, c.x, c.y)
		}
	}
}

func TestDeterminedStateRejectsNonPrefix(t *testing.T) {
	cg, s0 := figure4()
	g, _ := FromConflict(cg, s0)
	// {Q} alone is not a prefix: O precedes it.
	if _, err := g.DeterminedState(graph.NewSet(g.NodeOf(3).ID())); err == nil {
		t.Error("non-prefix accepted")
	}
}

func TestLemma2PrefixStatesMatchStateSequence(t *testing.T) {
	// Lemma 2: S_i is the state determined by the prefix induced by
	// O_1…O_i, for random histories.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := randomOps(rng, 12, 4)
		s0 := randomState(rng, 4)
		states := []*model.State{s0.Clone()}
		for _, o := range ops {
			s := states[len(states)-1].Clone()
			if _, err := s.Apply(o); err != nil {
				return false
			}
			states = append(states, s)
		}
		cg := conflict.FromOps(ops...)
		g, err := FromConflict(cg, s0)
		if err != nil {
			return false
		}
		prefix := graph.NewSet[NodeID]()
		for i, o := range ops {
			prefix.Add(g.NodeOf(o.ID()).ID())
			det, err := g.DeterminedState(prefix)
			if err != nil || !det.Equal(states[i+1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestStateGraphIndependentOfLinearization(t *testing.T) {
	// The conflict graph uniquely determines the state graph: executing
	// any linearization gives every node the same write labels.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := randomOps(rng, 12, 4)
		s0 := randomState(rng, 4)
		cg := conflict.FromOps(ops...)
		g1, err := FromConflict(cg, s0)
		if err != nil {
			return false
		}
		// Re-build the conflict graph from a random linearization and
		// compare write labels per operation.
		lin := randomLinearization(rng, cg)
		cg2 := conflict.FromOps(lin...)
		g2, err := FromConflict(cg2, s0)
		if err != nil {
			return false
		}
		for _, id := range cg.OpIDs() {
			w1, w2 := g1.NodeOf(id).Writes(), g2.NodeOf(id).Writes()
			if len(w1) != len(w2) {
				return false
			}
			for x, v := range w1 {
				if w2[x] != v {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPrefixStateReachableByAnyTotalOrder(t *testing.T) {
	// "any state determined by any prefix of this state graph is reachable
	// by any total ordering of the operations labeling that prefix."
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := randomOps(rng, 10, 3)
		s0 := randomState(rng, 3)
		cg := conflict.FromOps(ops...)
		g, err := FromConflict(cg, s0)
		if err != nil {
			return false
		}
		// Random prefix of the state graph.
		prefix := randomPrefix(rng, g)
		det, err := g.DeterminedState(prefix)
		if err != nil {
			return false
		}
		// Execute the prefix ops in a random conflict-consistent order.
		run := s0.Clone()
		for _, o := range randomSubsetLinearization(rng, cg, prefix, g) {
			if _, err := run.Apply(o); err != nil {
				return false
			}
		}
		return run.Equal(det)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPrefixOfOps(t *testing.T) {
	cg, s0 := figure4()
	g, _ := FromConflict(cg, s0)
	set, err := g.PrefixOfOps(graph.NewSet[model.OpID](1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 2 {
		t.Errorf("set = %v", set)
	}
	if _, err := g.PrefixOfOps(graph.NewSet[model.OpID](9)); err == nil {
		t.Error("unknown op accepted")
	}
}

func TestAddNodeDuplicateOpPanics(t *testing.T) {
	g := New(model.NewState())
	g.AddNode([]model.OpID{1}, map[model.Var]model.Value{"x": "1"})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on duplicate op label")
		}
	}()
	g.AddNode([]model.OpID{1}, map[model.Var]model.Value{"y": "1"})
}

func TestValidateDetectsUnorderedWriters(t *testing.T) {
	g := New(model.NewState())
	g.AddNode([]model.OpID{1}, map[model.Var]model.Value{"x": "1"})
	g.AddNode([]model.OpID{2}, map[model.Var]model.Value{"x": "2"})
	if err := g.Validate(); err == nil {
		t.Error("two unordered writers of x accepted")
	}
	g.AddEdge(1, 2)
	if err := g.Validate(); err != nil {
		t.Errorf("ordered writers rejected: %v", err)
	}
}

func TestAddEdgeMissingNodePanics(t *testing.T) {
	g := New(model.NewState())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on missing node")
		}
	}()
	g.AddEdge(1, 2)
}

func TestNodeAccessors(t *testing.T) {
	g := New(model.NewState())
	n := g.AddNode([]model.OpID{5, 3}, map[model.Var]model.Value{"b": "2", "a": "1"})
	if ids := n.OpIDs(); len(ids) != 2 || ids[0] != 3 || ids[1] != 5 {
		t.Errorf("OpIDs = %v", ids)
	}
	if vs := n.Vars(); len(vs) != 2 || vs[0] != "a" || vs[1] != "b" {
		t.Errorf("Vars = %v", vs)
	}
	if _, ok := n.WriteValue("z"); ok {
		t.Error("WriteValue on unwritten var")
	}
	if g.NodeOf(99) != nil {
		t.Error("NodeOf unknown op")
	}
}

func TestFinalStateMatchesSequenceFinal(t *testing.T) {
	cg, s0 := figure4()
	g, _ := FromConflict(cg, s0)
	fin := g.FinalState()
	if model.AsInt(fin.Get("x")) != 3 || model.AsInt(fin.Get("y")) != 3 {
		t.Errorf("final = %v, want x=3 y=3", fin)
	}
}

// --- helpers shared with the conflict package's test style ---

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

func randomLinearization(rng *rand.Rand, g *conflict.Graph) []*model.Op {
	indeg := make(map[model.OpID]int)
	var ready []model.OpID
	for _, id := range g.OpIDs() {
		indeg[id] = g.DAG().InDegree(id)
		if indeg[id] == 0 {
			ready = append(ready, id)
		}
	}
	var out []*model.Op
	for len(ready) > 0 {
		i := rng.Intn(len(ready))
		id := ready[i]
		ready = append(ready[:i], ready[i+1:]...)
		out = append(out, g.Op(id))
		for _, s := range g.DAG().Succs(id) {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	return out
}

// randomPrefix returns a random prefix of the state graph.
func randomPrefix(rng *rand.Rand, g *Graph) graph.Set[NodeID] {
	order, err := g.DAG().TopoOrder()
	if err != nil {
		panic(err)
	}
	s := graph.NewSet[NodeID]()
	for _, k := range order {
		ok := true
		for _, p := range g.DAG().Preds(k) {
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

// randomSubsetLinearization returns the operations of the prefix nodes in
// a random order consistent with the conflict graph.
func randomSubsetLinearization(rng *rand.Rand, cg *conflict.Graph, prefix graph.Set[NodeID], g *Graph) []*model.Op {
	inPrefix := graph.NewSet[model.OpID]()
	for id := range prefix {
		for op := range g.Node(id).Ops() {
			inPrefix.Add(op)
		}
	}
	var out []*model.Op
	for _, o := range randomLinearization(rng, cg) {
		if inPrefix.Has(o.ID()) {
			out = append(out, o)
		}
	}
	return out
}
