package graph

import (
	"reflect"
	"testing"
)

// diamond builds 1→2, 1→3, 2→4, 3→4 plus the isolated node 5.
func diamondGraph() *Graph[int] {
	g := New[int]()
	g.AddEdge(1, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 4)
	g.AddEdge(3, 4)
	g.AddNode(5)
	return g
}

func TestWeakComponentsWholeGraph(t *testing.T) {
	g := diamondGraph()
	got := g.WeakComponents(NewSet(1, 2, 3, 4, 5))
	want := [][]int{{1, 2, 3, 4}, {5}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("WeakComponents = %v, want %v", got, want)
	}
}

func TestWeakComponentsRestriction(t *testing.T) {
	g := diamondGraph()
	// Removing 1 and 4 from the set cuts the diamond in half: 2 and 3
	// are only connected through excluded nodes.
	got := g.WeakComponents(NewSet(2, 3))
	want := [][]int{{2}, {3}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("WeakComponents({2,3}) = %v, want %v", got, want)
	}
	// Keeping one hub reconnects them.
	got = g.WeakComponents(NewSet(2, 3, 4))
	want = [][]int{{2, 3, 4}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("WeakComponents({2,3,4}) = %v, want %v", got, want)
	}
}

func TestWeakComponentsNodesAbsentFromGraph(t *testing.T) {
	g := New[int]()
	g.AddEdge(1, 2)
	// 9 is not a node of the graph: it forms its own singleton component.
	got := g.WeakComponents(NewSet(1, 2, 9))
	want := [][]int{{1, 2}, {9}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("WeakComponents = %v, want %v", got, want)
	}
}

func TestWeakComponentsEmptySet(t *testing.T) {
	if got := diamondGraph().WeakComponents(NewSet[int]()); len(got) != 0 {
		t.Errorf("WeakComponents(∅) = %v, want empty", got)
	}
}

func TestTopoWithinRespectsInducedEdges(t *testing.T) {
	g := diamondGraph()
	order, err := g.topoWithin(NewSet(1, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[int]int, len(order))
	for i, n := range order {
		pos[n] = i
	}
	if len(order) != 3 {
		t.Fatalf("TopoWithin order = %v", order)
	}
	if !(pos[1] < pos[2] && pos[2] < pos[4]) {
		t.Errorf("TopoWithin order %v violates 1→2→4", order)
	}
}

func TestTopoWithinIgnoresOutsideEdges(t *testing.T) {
	g := New[int]()
	g.AddEdge(2, 1) // 2→1, but 2 is excluded below
	order, err := g.topoWithin(NewSet(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 3} // no induced edges: canonical smallest-first order
	if !reflect.DeepEqual(order, want) {
		t.Errorf("TopoWithin = %v, want %v", order, want)
	}
}

func TestTopoWithinAbsentNode(t *testing.T) {
	g := New[int]()
	g.AddEdge(1, 2)
	order, err := g.topoWithin(NewSet(2, 7))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []int{2, 7}) {
		t.Errorf("TopoWithin = %v, want [2 7]", order)
	}
}
