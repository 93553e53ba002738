// Package conflict implements the conflict graph of Section 2.2 of the
// paper: a DAG over the logged operations with write-write, write-read,
// and read-write edges, built incrementally as operations are invoked.
//
// Besides the DAG itself the package maintains, per variable, the chain of
// its writers in version order together with the readers of each version.
// The chain is graph-intrinsic information (writers of a variable are
// totally ordered by the conflict edges on that variable) and is what the
// installation package's exposure analysis walks, so exposure costs
// O(accesses of x) instead of a reachability query.
package conflict

import (
	"fmt"
	"sort"
	"strings"

	"redotheory/internal/graph"
	"redotheory/internal/model"
)

// Kind is a bitmask of conflict kinds carried by an edge. A single edge
// may carry several kinds (in Figure 4 the edge O→Q is both a write-write
// and a read-write conflict).
type Kind uint8

const (
	// WW marks a write-write conflict: O writes x, P writes x, and O is
	// P's preceding write.
	WW Kind = 1 << iota
	// WR marks a write-read conflict: O writes x, P reads x, and O is P's
	// preceding write.
	WR
	// RW marks a read-write conflict: O reads x, P writes x, and P is O's
	// following write.
	RW
)

// String renders the kind set as "WW|WR|RW".
func (k Kind) String() string {
	var parts []string
	if k&WW != 0 {
		parts = append(parts, "WW")
	}
	if k&WR != 0 {
		parts = append(parts, "WR")
	}
	if k&RW != 0 {
		parts = append(parts, "RW")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "|")
}

// chain records a variable's access chronology: writers in version order,
// and for each version the set of operations that read it. readers[i]
// holds the readers of version i, where version 0 is the initial value and
// version i>0 is the value written by writers[i-1].
type chain struct {
	writers []model.OpID
	readers [][]model.OpID // len(readers) == len(writers)+1
}

// Graph is a conflict graph. Operations are appended in invocation order;
// the graph assigns the conflict edges as each operation arrives.
type Graph struct {
	ops    map[model.OpID]*model.Op
	order  []model.OpID // invocation (append) order
	dag    *graph.Graph[model.OpID]
	kinds  map[[2]model.OpID]Kind
	chains map[model.Var]*chain
	// readVersion records, per operation and read variable, which version
	// of the variable the operation read (0 = initial value).
	readVersion map[model.OpID]map[model.Var]int
}

// New returns an empty conflict graph.
func New() *Graph {
	return &Graph{
		ops:         make(map[model.OpID]*model.Op),
		dag:         graph.New[model.OpID](),
		kinds:       make(map[[2]model.OpID]Kind),
		chains:      make(map[model.Var]*chain),
		readVersion: make(map[model.OpID]map[model.Var]int),
	}
}

// FromOps builds the conflict graph generated by operations given in
// invocation order.
func FromOps(ops ...*model.Op) *Graph {
	g := New()
	for _, o := range ops {
		g.Append(o)
	}
	return g
}

func (g *Graph) chainFor(x model.Var) *chain {
	c, ok := g.chains[x]
	if !ok {
		c = &chain{readers: make([][]model.OpID, 1)}
		g.chains[x] = c
	}
	return c
}

// Append adds the next invoked operation to the graph, creating its
// conflict edges with earlier operations per the Section 2.2 definitions.
func (g *Graph) Append(o *model.Op) {
	id := o.ID()
	if _, dup := g.ops[id]; dup {
		panic(fmt.Sprintf("conflict: duplicate operation id %d", id))
	}
	g.ops[id] = o
	g.order = append(g.order, id)
	g.dag.AddNode(id)

	// Reads first: the operation observes the version preceding its own
	// writes, so an operation that reads and writes x (e.g. x←x+1) gets a
	// WR edge from the previous writer and becomes a reader of the
	// previous version.
	for _, x := range o.Reads() {
		c := g.chainFor(x)
		cur := len(c.writers)
		if cur > 0 {
			g.addEdge(c.writers[cur-1], id, WR)
		}
		c.readers[cur] = append(c.readers[cur], id)
		rv, ok := g.readVersion[id]
		if !ok {
			rv = make(map[model.Var]int, len(o.Reads()))
			g.readVersion[id] = rv
		}
		rv[x] = cur
	}
	for _, x := range o.Writes() {
		c := g.chainFor(x)
		cur := len(c.writers)
		if cur > 0 {
			g.addEdge(c.writers[cur-1], id, WW)
		}
		// Read-write conflicts: this operation is the following write for
		// every reader of the current version.
		for _, r := range c.readers[cur] {
			if r != id {
				g.addEdge(r, id, RW)
			}
		}
		c.writers = append(c.writers, id)
		c.readers = append(c.readers, nil)
	}
}

func (g *Graph) addEdge(u, v model.OpID, k Kind) {
	g.dag.AddEdge(u, v)
	g.kinds[[2]model.OpID{u, v}] |= k
}

// NumOps returns the number of operations labelling the graph.
func (g *Graph) NumOps() int { return len(g.ops) }

// Op returns the operation with the given id, or nil.
func (g *Graph) Op(id model.OpID) *model.Op { return g.ops[id] }

// HasOp reports whether id labels a node of the graph.
func (g *Graph) HasOp(id model.OpID) bool { return g.ops[id] != nil }

// OpIDs returns all operation ids in ascending order.
func (g *Graph) OpIDs() []model.OpID { return g.dag.Nodes() }

// InvocationOrder returns the operation ids in the order they were
// appended. The slice is shared; callers must not modify it.
func (g *Graph) InvocationOrder() []model.OpID { return g.order }

// DAG returns the underlying conflict DAG. The graph is shared; callers
// must not modify it.
func (g *Graph) DAG() *graph.Graph[model.OpID] { return g.dag }

// Kind returns the conflict kinds on the edge u→v, or 0 if no edge.
func (g *Graph) Kind(u, v model.OpID) Kind { return g.kinds[[2]model.OpID{u, v}] }

// Vars returns every variable accessed by any operation, sorted.
func (g *Graph) Vars() []model.Var {
	out := make([]model.Var, 0, len(g.chains))
	for x := range g.chains {
		out = append(out, x)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Writers returns the writers of x in version order: Writers(x)[i] wrote
// version i+1. The slice is shared; callers must not modify it.
func (g *Graph) Writers(x model.Var) []model.OpID {
	if c, ok := g.chains[x]; ok {
		return c.writers
	}
	return nil
}

// ReadersOfVersion returns the operations that read version v of x, where
// version 0 is the initial value. The slice is shared.
func (g *Graph) ReadersOfVersion(x model.Var, v int) []model.OpID {
	c, ok := g.chains[x]
	if !ok || v < 0 || v >= len(c.readers) {
		return nil
	}
	return c.readers[v]
}

// NumVersions returns the number of versions of x, counting the initial
// value: one more than the number of writers.
func (g *Graph) NumVersions(x model.Var) int {
	if c, ok := g.chains[x]; ok {
		return len(c.writers) + 1
	}
	return 1
}

// VersionRead returns which version of x the operation read (0 is the
// initial value; version i>0 was written by Writers(x)[i-1]). The second
// result is false if the operation does not read x.
func (g *Graph) VersionRead(op model.OpID, x model.Var) (int, bool) {
	v, ok := g.readVersion[op][x]
	return v, ok
}

// LastWriter returns the final writer of x in the graph, if any.
func (g *Graph) LastWriter(x model.Var) (model.OpID, bool) {
	c, ok := g.chains[x]
	if !ok || len(c.writers) == 0 {
		return 0, false
	}
	return c.writers[len(c.writers)-1], true
}

// Linearize returns the operations in a total order consistent with the
// conflict graph (the canonical topological order). By Lemma 1 any such
// order regenerates this same conflict graph.
func (g *Graph) Linearize() []*model.Op {
	ids, err := g.dag.TopoOrder()
	if err != nil {
		panic("conflict: conflict graph has a cycle: " + err.Error())
	}
	out := make([]*model.Op, len(ids))
	for i, id := range ids {
		out[i] = g.ops[id]
	}
	return out
}

// Equal reports whether two conflict graphs have the same operations and
// the same edges with the same kinds. Used to verify Lemma 1.
func (g *Graph) Equal(h *Graph) bool {
	if len(g.ops) != len(h.ops) {
		return false
	}
	for id := range g.ops {
		if h.ops[id] == nil {
			return false
		}
	}
	if len(g.kinds) != len(h.kinds) {
		return false
	}
	for e, k := range g.kinds {
		if h.kinds[e] != k {
			return false
		}
	}
	return true
}
