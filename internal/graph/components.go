package graph

import "sort"

// WeakComponents returns the weakly-connected components of the subgraph
// induced by the given node set: two nodes are in the same component when
// an undirected path of edges between members of the set connects them.
// Edges to or from nodes outside the set are ignored — this is the
// restriction the parallel redo planner needs, where the set is the
// uninstalled suffix of the log and edges through installed operations
// carry no replay constraint.
//
// Nodes within each component are sorted ascending, and components are
// ordered by their smallest node, so the result is deterministic.
func (g *Graph[K]) WeakComponents(within Set[K]) [][]K {
	comp := make(map[K]K, len(within)) // node → component representative (min seen so far during BFS)
	var roots []K
	for n := range within {
		if !g.HasNode(n) {
			comp[n] = n
			roots = append(roots, n)
			continue
		}
		if _, done := comp[n]; done {
			continue
		}
		// BFS over undirected edges restricted to the set.
		comp[n] = n
		roots = append(roots, n)
		queue := []K{n}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for v := range g.succs[u] {
				if within.Has(v) {
					if _, seen := comp[v]; !seen {
						comp[v] = n
						queue = append(queue, v)
					}
				}
			}
			for v := range g.preds[u] {
				if within.Has(v) {
					if _, seen := comp[v]; !seen {
						comp[v] = n
						queue = append(queue, v)
					}
				}
			}
		}
	}
	byRoot := make(map[K][]K, len(roots))
	for n, r := range comp {
		byRoot[r] = append(byRoot[r], n)
	}
	out := make([][]K, 0, len(byRoot))
	for _, members := range byRoot {
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		out = append(out, members)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}
