package graph

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// diamond builds 1→2, 1→3, 2→4, 3→4.
func diamond() *Graph[int] {
	g := New[int]()
	g.AddEdge(1, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 4)
	g.AddEdge(3, 4)
	return g
}

func TestAddNodeEdgeIdempotent(t *testing.T) {
	g := New[int]()
	g.AddNode(1)
	g.AddNode(1)
	g.AddEdge(1, 2)
	g.AddEdge(1, 2)
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Errorf("nodes=%d edges=%d, want 2,1", g.NumNodes(), g.NumEdges())
	}
}

func TestSelfEdgePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge(1,1) did not panic")
		}
	}()
	New[int]().AddEdge(1, 1)
}

func TestRemoveEdge(t *testing.T) {
	g := diamond()
	g.removeEdge(1, 2)
	if g.HasEdge(1, 2) || g.NumEdges() != 3 {
		t.Error("RemoveEdge failed")
	}
	g.removeEdge(1, 2) // no-op
	if g.NumEdges() != 3 {
		t.Error("double RemoveEdge changed edge count")
	}
}

func TestRemoveNode(t *testing.T) {
	g := diamond()
	g.RemoveNode(2)
	if g.HasNode(2) || g.NumNodes() != 3 {
		t.Error("RemoveNode failed")
	}
	if g.NumEdges() != 2 {
		t.Errorf("edges = %d, want 2 (1→3, 3→4)", g.NumEdges())
	}
	if g.HasPath(1, 4) != true {
		t.Error("path 1→3→4 should survive")
	}
}

func TestPredsSuccsSorted(t *testing.T) {
	g := New[int]()
	g.AddEdge(3, 1)
	g.AddEdge(2, 1)
	p := g.Preds(1)
	if len(p) != 2 || p[0] != 2 || p[1] != 3 {
		t.Errorf("Preds = %v", p)
	}
}

func TestHasPath(t *testing.T) {
	g := diamond()
	cases := []struct {
		u, v int
		want bool
	}{
		{1, 4, true}, {1, 2, true}, {2, 3, false}, {4, 1, false}, {2, 2, false},
	}
	for _, c := range cases {
		if got := g.HasPath(c.u, c.v); got != c.want {
			t.Errorf("HasPath(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

func TestAncestorsReachable(t *testing.T) {
	g := diamond()
	anc := g.Ancestors(4)
	if len(anc) != 3 {
		t.Errorf("Ancestors(4) = %v, want {1,2,3}", anc)
	}
	desc := g.Reachable(1)
	if len(desc) != 3 {
		t.Errorf("Reachable(1) = %v, want {2,3,4}", desc)
	}
}

func TestClone(t *testing.T) {
	g := diamond()
	c := g.Clone()
	c.AddEdge(4, 5)
	if g.HasNode(5) {
		t.Error("Clone is not independent")
	}
	if !c.HasEdge(1, 2) {
		t.Error("Clone lost an edge")
	}
}

func TestIsPrefix(t *testing.T) {
	g := diamond()
	cases := []struct {
		set  Set[int]
		want bool
	}{
		{NewSet[int](), true},
		{NewSet(1), true},
		{NewSet(1, 2), true},
		{NewSet(1, 2, 3), true},
		{NewSet(1, 2, 3, 4), true},
		{NewSet(2), false},       // predecessor 1 missing
		{NewSet(1, 4), false},    // predecessors 2,3 missing
		{NewSet(1, 2, 4), false}, // predecessor 3 missing
	}
	for _, c := range cases {
		if got := g.IsPrefix(c.set); got != c.want {
			t.Errorf("IsPrefix(%v) = %v, want %v", c.set, got, c.want)
		}
	}
}

func TestPrefixViolationWitness(t *testing.T) {
	g := diamond()
	e, bad := g.PrefixViolation(NewSet(2))
	if !bad || e != [2]int{1, 2} {
		t.Errorf("violation = %v,%v, want (1,2)", e, bad)
	}
	if _, bad := g.PrefixViolation(NewSet(1, 2)); bad {
		t.Error("prefix {1,2} reported as violation")
	}
	// A member missing from the graph is reported as a self-pair.
	e, bad = g.PrefixViolation(NewSet(99))
	if !bad || e != [2]int{99, 99} {
		t.Errorf("missing-node violation = %v,%v", e, bad)
	}
}

func TestPrefixClosure(t *testing.T) {
	g := diamond()
	cl := g.PrefixClosure(NewSet(4))
	if len(cl) != 4 {
		t.Errorf("closure = %v, want all four nodes", cl)
	}
	if !g.IsPrefix(cl) {
		t.Error("closure is not a prefix")
	}
}

func TestMinimalOutside(t *testing.T) {
	g := diamond()
	if got := g.MinimalOutside(NewSet[int]()); len(got) != 1 || got[0] != 1 {
		t.Errorf("MinimalOutside(∅) = %v, want [1]", got)
	}
	if got := g.MinimalOutside(NewSet(1)); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("MinimalOutside({1}) = %v, want [2 3]", got)
	}
	if got := g.MinimalOutside(NewSet(1, 2, 3, 4)); len(got) != 0 {
		t.Errorf("MinimalOutside(all) = %v, want []", got)
	}
}

func TestMinimalAgreementOnPrefixComplements(t *testing.T) {
	// Property: for random DAGs and random prefixes, MinimalOutside agrees
	// with the reachability-based reference on the complement set.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, 12, 0.3)
		pre := randomPrefix(rng, g)
		fast := g.MinimalOutside(pre)
		comp := NewSet[int]()
		for _, k := range g.Nodes() {
			if !pre.Has(k) {
				comp.Add(k)
			}
		}
		slow := g.MinimalByReachability(comp)
		if len(fast) != len(slow) {
			return false
		}
		for i := range fast {
			if fast[i] != slow[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// randomDAG builds a DAG on n nodes with edges only from lower to higher
// ids, each present with probability p.
func randomDAG(rng *rand.Rand, n int, p float64) *Graph[int] {
	g := New[int]()
	for i := 0; i < n; i++ {
		g.AddNode(i)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// randomPrefix picks a random prefix by walking a topological order and
// stopping early, then randomly dropping a suffix-closed subset.
func randomPrefix(rng *rand.Rand, g *Graph[int]) Set[int] {
	order, err := g.TopoOrder()
	if err != nil {
		panic(err)
	}
	s := NewSet[int]()
	for _, k := range order {
		ok := true
		for _, p := range g.Preds(k) {
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

func TestTopoOrder(t *testing.T) {
	g := diamond()
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[int]int)
	for i, k := range order {
		pos[k] = i
	}
	for _, u := range g.Nodes() {
		for _, v := range g.Succs(u) {
			if pos[u] >= pos[v] {
				t.Errorf("topo order violates edge %d→%d", u, v)
			}
		}
	}
	// Deterministic: smallest ready node first → 1,2,3,4 for the diamond.
	want := []int{1, 2, 3, 4}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTopoOrderDetectsCycle(t *testing.T) {
	g := New[int]()
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 1)
	if _, err := g.TopoOrder(); err == nil {
		t.Error("cycle not detected")
	}
	if g.IsAcyclic() {
		t.Error("IsAcyclic true on a cycle")
	}
}

func TestTopoOrderPropertyRandomDAGs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, 20, 0.2)
		order, err := g.TopoOrder()
		if err != nil || len(order) != g.NumNodes() {
			return false
		}
		pos := make(map[int]int)
		for i, k := range order {
			pos[k] = i
		}
		for _, u := range g.Nodes() {
			for _, v := range g.Succs(u) {
				if pos[u] >= pos[v] {
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

func TestDotRendering(t *testing.T) {
	g := New[int]()
	g.AddEdge(1, 2)
	out := Dot(g, DotOptions[int]{Name: "Fig", NodeLabel: func(k int) string {
		if k == 1 {
			return "O"
		}
		return "P"
	}})
	for _, want := range []string{"digraph Fig", `"1" [label="O"]`, `"1" -> "2"`} {
		if !strings.Contains(out, want) {
			t.Errorf("Dot output missing %q:\n%s", want, out)
		}
	}
}

func TestSetOperations(t *testing.T) {
	s := NewSet(1, 2)
	if !s.Has(1) || s.Has(3) {
		t.Error("Has wrong")
	}
	c := s.Clone()
	c.Add(3)
	if s.Has(3) {
		t.Error("Clone not independent")
	}
}
