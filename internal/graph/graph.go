// Package graph provides the directed-acyclic-graph machinery shared by
// the conflict graph, installation graph, state graph, and write graph:
// nodes, edges, reachability, prefixes, minimal elements, and topological
// orders.
//
// The paper (Section 2.1) defines the predecessors of a node n as every
// node with a path to n, and a prefix of a graph as a node set closed
// under predecessors. A set is closed under all predecessors iff it is
// closed under direct predecessors, so prefix checks here cost O(edges at
// the frontier) rather than a transitive closure.
package graph

import (
	"cmp"
	"fmt"
	"sort"
)

// Graph is a directed graph over node keys of type K. The key type is
// ordered so every iteration order in the package is deterministic.
// Acyclicity is the caller's invariant; IsAcyclic and TopoOrder verify it.
type Graph[K cmp.Ordered] struct {
	nodes map[K]struct{}
	succs map[K]map[K]struct{}
	preds map[K]map[K]struct{}
	edges int
}

// New returns an empty graph.
func New[K cmp.Ordered]() *Graph[K] {
	return &Graph[K]{
		nodes: make(map[K]struct{}),
		succs: make(map[K]map[K]struct{}),
		preds: make(map[K]map[K]struct{}),
	}
}

// AddNode inserts a node. Adding an existing node is a no-op.
func (g *Graph[K]) AddNode(k K) {
	if _, ok := g.nodes[k]; ok {
		return
	}
	g.nodes[k] = struct{}{}
	g.succs[k] = make(map[K]struct{})
	g.preds[k] = make(map[K]struct{})
}

// HasNode reports whether k is a node of the graph.
func (g *Graph[K]) HasNode(k K) bool {
	_, ok := g.nodes[k]
	return ok
}

// AddEdge inserts the edge u→v, adding missing endpoints. Self-edges are
// rejected: conflict definitions never relate an operation to itself.
// Adding an existing edge is a no-op.
func (g *Graph[K]) AddEdge(u, v K) {
	if u == v {
		panic(fmt.Sprintf("graph: self-edge on %v", u))
	}
	g.AddNode(u)
	g.AddNode(v)
	if _, ok := g.succs[u][v]; ok {
		return
	}
	g.succs[u][v] = struct{}{}
	g.preds[v][u] = struct{}{}
	g.edges++
}

// RemoveNode deletes a node and all its incident edges.
func (g *Graph[K]) RemoveNode(k K) {
	if !g.HasNode(k) {
		return
	}
	for v := range g.succs[k] {
		delete(g.preds[v], k)
		g.edges--
	}
	for u := range g.preds[k] {
		delete(g.succs[u], k)
		g.edges--
	}
	delete(g.succs, k)
	delete(g.preds, k)
	delete(g.nodes, k)
}

// HasEdge reports whether the direct edge u→v exists.
func (g *Graph[K]) HasEdge(u, v K) bool {
	_, ok := g.succs[u][v]
	return ok
}

// NumNodes returns the node count.
func (g *Graph[K]) NumNodes() int { return len(g.nodes) }

// NumEdges returns the edge count.
func (g *Graph[K]) NumEdges() int { return g.edges }

// Nodes returns all nodes in sorted order.
func (g *Graph[K]) Nodes() []K {
	out := make([]K, 0, len(g.nodes))
	for k := range g.nodes {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Succs returns the direct successors of k in sorted order.
func (g *Graph[K]) Succs(k K) []K { return sortedKeys(g.succs[k]) }

// Preds returns the direct predecessors of k in sorted order.
func (g *Graph[K]) Preds(k K) []K { return sortedKeys(g.preds[k]) }

// OutDegree returns the number of direct successors of k.
func (g *Graph[K]) OutDegree(k K) int { return len(g.succs[k]) }

// InDegree returns the number of direct predecessors of k.
func (g *Graph[K]) InDegree(k K) int { return len(g.preds[k]) }

func sortedKeys[K cmp.Ordered](m map[K]struct{}) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Clone returns an independent copy of the graph.
func (g *Graph[K]) Clone() *Graph[K] {
	c := New[K]()
	for k := range g.nodes {
		c.AddNode(k)
	}
	for u, vs := range g.succs {
		for v := range vs {
			c.AddEdge(u, v)
		}
	}
	return c
}

// HasPath reports whether there is a directed path (of one or more edges)
// from u to v.
func (g *Graph[K]) HasPath(u, v K) bool {
	if !g.HasNode(u) || !g.HasNode(v) {
		return false
	}
	seen := map[K]struct{}{u: {}}
	stack := []K{u}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for s := range g.succs[n] {
			if s == v {
				return true
			}
			if _, ok := seen[s]; !ok {
				seen[s] = struct{}{}
				stack = append(stack, s)
			}
		}
	}
	return false
}

// Reachable returns every node with a path of one or more edges from u —
// i.e. u's descendants. The paper's "predecessors of n" is Ancestors.
func (g *Graph[K]) Reachable(u K) map[K]struct{} {
	out := make(map[K]struct{})
	stack := []K{u}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for s := range g.succs[n] {
			if _, ok := out[s]; !ok {
				out[s] = struct{}{}
				stack = append(stack, s)
			}
		}
	}
	return out
}

// Ancestors returns every node with a path of one or more edges to v:
// the paper's predecessor set of v.
func (g *Graph[K]) Ancestors(v K) map[K]struct{} {
	out := make(map[K]struct{})
	stack := []K{v}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for p := range g.preds[n] {
			if _, ok := out[p]; !ok {
				out[p] = struct{}{}
				stack = append(stack, p)
			}
		}
	}
	return out
}
