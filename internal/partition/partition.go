// Package partition plans parallel redo replay. The paper's installation
// graph (Section 3.1, Theorem 3) is a dependency order for recovery:
// operations with no path between them in the graphs governing replay may
// be redone in either order, so they may be redone concurrently. This
// package takes the redo set a recovery method's decision phase chose —
// the uninstalled suffix of the log — and splits it into independent
// components that a worker pool can replay against disjoint slices of the
// state, with a schedule inside each component that preserves the
// sequential procedure's order.
//
// # Which graph partitions replay
//
// The installation graph alone is not enough for methods that replay by
// recomputation. It drops pure write-read edges, and a write-read edge is
// exactly a replayed reader's data dependency on a replayed writer: if A
// writes x and B recomputes from x, replaying B before A feeds B a stale
// read. Blind-write methods (physical logging) have no read sets, so for
// them the restriction of the installation graph and of the conflict
// graph coincide; reading methods (logical, generalized LSN) need the
// write-read and read-write edges kept — the same careful-write-order
// story as Section 6.4, where a reader's page must install before its
// read page is overwritten. So the planner partitions by the conflict
// graph, of which the installation graph's components are the blind-write
// special case: the weak components of the restricted conflict graph
// (graph.DAG.WeakComponents) are that graph-theoretic view.
//
// # The schedule the planner actually builds
//
// FromViews computes the same partition without building a graph at
// all, from interference alone: for every variable written by some
// replayed operation, all replayed operations accessing that variable
// are fused into one component. Under the Recovery Invariant the two
// constructions agree (TestPlanMatchesConflictComponents asserts it):
// the invariant makes the installed set an installation-graph prefix, so
// the replayed writers of a variable are a contiguous suffix of its
// version chain, chained together by write-write edges, and every
// replayed reader attaches to that chain by a direct write-read or
// read-write edge. The interference form is preferred because it is
// O(accesses) with no graph build, and because it stays safe even on
// out-of-contract inputs (a faulted run whose installed set is not a
// prefix): components never share a written variable, so partitioned
// replay equals sequential replay unconditionally — both may then be
// wrong, but identically wrong, which is what lets the campaign's
// corruption oracle treat parallel and sequential recovery as the same
// procedure.
//
// Within a component, records keep LSN order. The log order is
// consistent with the conflict order (Section 4.1), so LSN order is a
// topological order of the restricted conflict graph — the canonical
// schedule Lemma 1 linearization licenses.
package partition

import (
	"fmt"
	"slices"

	"redotheory/internal/core"
)

// Component is one independently replayable unit: record indexes into a
// log view, in LSN order, whose written variables no other component
// touches.
type Component struct {
	// Idx are indexes into the log view's Views slice, in LSN order
	// (the component's topological schedule).
	Idx []int
	// Writes are the unique interned ids the component's operations
	// write, ascending: its slice of the state. Disjoint across
	// components by construction.
	Writes []uint32
}

// Plan is a parallel replay schedule for one redo set.
type Plan struct {
	// Components in deterministic order (by first record LSN).
	Components []*Component
	// Ops is the total number of records scheduled.
	Ops int
	// Idx lists every scheduled record's view index in LSN order: the
	// replayIdx the plan was built from. Each component's Idx is a
	// subsequence of it.
	Idx []int
	// Of is the component table of the schedule: Of[i] is the index
	// into Components of the component that replays Idx[i]. Schedules
	// that walk the log once (DESIGN.md §8) read ownership from it.
	Of []int32

	// writer and readers are the serve gate's tables (WriterIndex,
	// ReaderIndex), left over from planning.
	writer  []int32
	readers [][]int32
}

// MaxComponentLen returns the longest component's length — the
// critical path of the plan in records (0 for an empty plan).
func (p *Plan) MaxComponentLen() int {
	m := 0
	for _, c := range p.Components {
		m = max(m, len(c.Idx))
	}
	return m
}

// Stats returns the plan's summary numbers.
func (p *Plan) Stats() Stats {
	return Stats{Ops: p.Ops, Components: len(p.Components), Largest: p.MaxComponentLen()}
}

// WriterIndex returns the page→component table of the plan: entry x is
// the index (into Components) of the component that writes variable id
// x, or -1 when no scheduled operation writes it. Because components
// write disjoint variables, the writer component is unique — this is
// the page→admitted-records index the instant-restart serve engine
// consults on every touch. The table is built by FromViews and shared:
// callers must not modify it. numIDs is unused; the parameter keeps the
// call shape the benchmark harness compiles against.
func (p *Plan) WriterIndex(numIDs int) []int32 { return p.writer }

// ReaderIndex returns, per variable id, the components whose scheduled
// operations read it without writing it, ascending and without
// duplicates: the stable variables a component's recomputation depends
// on. Interference closure fuses a reader with the variable's writer, so
// for any id with a writer component the reader list is empty by
// construction; non-empty lists name variables no component writes. The
// serve engine's admission gate uses this as the careful-write-order
// constraint for post-crash writes: a new write to x may proceed only
// once every component reading x has replayed, or its recomputations
// would observe the new value instead of the crash-time one. The table
// is built by FromViews and shared: callers must not modify it. views
// and numIDs are unused; the parameters keep the call shape the
// benchmark harness compiles against.
func (p *Plan) ReaderIndex(views []core.RecordView, numIDs int) [][]int32 { return p.readers }

// FromViews plans the replay of the records named by replayIdx (indexes
// into views, in LSN order, as the decision phase yields them), fused
// into interference components (see the package comment). The writer
// and pending-reader tables are flat slices indexed by interned variable
// id — numIDs is the interner's Len() — and they become the plan's
// WriterIndex and ReaderIndex once the components are known.
func FromViews(views []core.RecordView, replayIdx []int, numIDs int) *Plan {
	uf := NewUnionFind(len(replayIdx))
	// Two operations interfere iff they access a common variable that at
	// least one of them writes; union-find fuses the transitive closure.
	// writerOf[x] is the replay position of x's first scheduled writer
	// (-1 when none yet); pending[x] collects readers seen before any
	// writer — they must observe the pre-write value, so the first writer
	// fuses with all of them. Readers of a variable no scheduled
	// operation writes stay unconstrained: the variable is stable
	// throughout replay.
	writerOf := make([]int32, numIDs)
	for i := range writerOf {
		writerOf[i] = -1
	}
	pending := make([][]int32, numIDs)
	for i, vi := range replayIdx {
		v := &views[vi]
		for _, x := range v.Writes() {
			if w := writerOf[x]; w >= 0 {
				uf.Union(int(w), i)
			} else {
				writerOf[x] = int32(i)
				for _, reader := range pending[x] {
					uf.Union(int(reader), i)
				}
				pending[x] = nil
			}
		}
		for _, x := range v.Reads() {
			if w := writerOf[x]; w >= 0 {
				uf.Union(int(w), i)
			} else {
				pending[x] = append(pending[x], int32(i))
			}
		}
	}

	// Group by root. Roots are replay positions, so flat slices replace
	// a root→component map, and a counting pass sizes two shared arenas
	// exactly: every component's Idx and Writes is a zero-growth
	// sub-slice, so building the plan costs a fixed handful of
	// allocations regardless of how many components there are.
	n := len(replayIdx)
	counts := make([]int32, n)
	wcounts := make([]int32, n)
	comps := 0
	for i := 0; i < n; i++ {
		root := uf.find(i)
		if counts[root] == 0 {
			comps++
		}
		counts[root]++
	}
	totalWrites := 0
	for _, w := range writerOf {
		if w >= 0 {
			wcounts[uf.find(int(w))]++
			totalWrites++
		}
	}

	backing := make([]Component, comps)
	idxArena := make([]int, n)
	writeArena := make([]uint32, totalWrites)
	// compAt[root] is the root's component index plus one (0: unseen).
	compAt := make([]int32, n)
	plan := &Plan{Ops: n, Components: make([]*Component, 0, comps), Idx: replayIdx, Of: make([]int32, n)}
	idxOff, wOff := 0, 0
	for i, vi := range replayIdx {
		root := uf.find(i)
		if compAt[root] == 0 {
			c := &backing[len(plan.Components)]
			// Three-index sub-slices: appends fill the reserved region
			// and can never spill into a neighbour's.
			c.Idx = idxArena[idxOff : idxOff : idxOff+int(counts[root])]
			idxOff += int(counts[root])
			c.Writes = writeArena[wOff : wOff : wOff+int(wcounts[root])]
			wOff += int(wcounts[root])
			// i ascends, so components order by first record LSN.
			plan.Components = append(plan.Components, c)
			compAt[root] = int32(len(plan.Components))
		}
		ci := compAt[root] - 1
		plan.Of[i] = ci
		backing[ci].Idx = append(backing[ci].Idx, vi)
	}
	// Each written id belongs to the component of its first writer;
	// iterating writerOf ascending yields each component's Writes
	// sorted and each id exactly once. The same loop turns writerOf
	// into the writer table.
	for x, w := range writerOf {
		if w >= 0 {
			ci := compAt[uf.find(int(w))] - 1
			backing[ci].Writes = append(backing[ci].Writes, uint32(x))
			writerOf[x] = ci
		}
	}
	// A written id's readers all fused into its writer's component and
	// its pending list was cleared, so what pending still holds are the
	// readers of ids no scheduled record writes: the reader table, once
	// positions become component indexes, ascending and deduplicated.
	for x, rs := range pending {
		if len(rs) == 0 {
			continue
		}
		for k, i := range rs {
			rs[k] = plan.Of[i]
		}
		slices.Sort(rs)
		pending[x] = slices.Compact(rs)
	}
	plan.writer, plan.readers = writerOf, pending
	return plan
}

// Stats summarizes a plan for reporting.
type Stats struct {
	Ops        int
	Components int
	// Largest is the longest component (the critical path).
	Largest int
}

// Signature renders the stats as a compact "ops/components/largest"
// key. The fuzzer counts distinct signatures as its partition-shape
// coverage metric: two cells with the same signature exercised the same
// parallelism structure.
func (s Stats) Signature() string {
	return fmt.Sprintf("%d/%d/%d", s.Ops, s.Components, s.Largest)
}

// UnionFind is a standard disjoint-set forest over dense indexes with
// path halving and union by size. The planner closes interference
// components with it; the sharded certified-cut computation
// (internal/shard) reuses it to cluster the transactions a frontier
// retreat entangles.
type UnionFind struct {
	parent []int
	size   []int
}

// NewUnionFind returns n singleton sets, one per index in [0, n).
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{parent: make([]int, n), size: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
		uf.size[i] = 1
	}
	return uf
}

// find returns the canonical representative of i's set.
func (uf *UnionFind) find(i int) int {
	for uf.parent[i] != i {
		uf.parent[i] = uf.parent[uf.parent[i]]
		i = uf.parent[i]
	}
	return i
}

// Union merges the sets containing a and b.
func (uf *UnionFind) Union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if uf.size[ra] < uf.size[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	uf.size[ra] += uf.size[rb]
}

// Sets counts the distinct sets remaining.
func (uf *UnionFind) Sets() int {
	n := 0
	for i := range uf.parent {
		if uf.find(i) == i {
			n++
		}
	}
	return n
}
