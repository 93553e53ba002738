package partition

import (
	"redotheory/internal/core"
)

// DenseComponent is a Component in the interned representation: record
// indexes into a log view instead of record pointers, and a flat slice
// of written variable ids instead of a map-backed set. Write-id slices
// are disjoint across components by construction, exactly like
// Component.Writes.
type DenseComponent struct {
	// Idx are indexes into the log view's Views slice, in LSN order
	// (the component's topological schedule).
	Idx []int
	// Writes are the unique interned ids the component's operations
	// write, ascending.
	Writes []uint32
}

// DensePlan is a Plan over dense record views.
type DensePlan struct {
	// Components in deterministic order (by first record LSN).
	Components []*DenseComponent
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
}

// MaxComponentLen returns the longest component's length — the
// critical path of the plan in records (0 for an empty plan).
func (p *DensePlan) MaxComponentLen() int {
	m := 0
	for _, c := range p.Components {
		if len(c.Idx) > m {
			m = len(c.Idx)
		}
	}
	return m
}

// Stats returns the plan's summary numbers.
func (p *DensePlan) Stats() Stats {
	return Stats{Ops: p.Ops, Components: len(p.Components), Largest: p.MaxComponentLen()}
}

// WriterIndex returns the page→component table of the plan: entry x is
// the index (into Components) of the component that writes variable id
// x, or -1 when no scheduled operation writes it. Because components
// write disjoint variables, the writer component is unique — this is
// the page→admitted-records index the instant-restart serve engine
// consults on every touch. numIDs is the interner's Len().
func (p *DensePlan) WriterIndex(numIDs int) []int32 {
	out := make([]int32, numIDs)
	for i := range out {
		out[i] = -1
	}
	for ci, c := range p.Components {
		for _, x := range c.Writes {
			out[x] = int32(ci)
		}
	}
	return out
}

// ReaderIndex returns, per variable id, the components whose scheduled
// operations read it without writing it: the stable variables a
// component's recomputation depends on. Interference closure fuses a
// reader with the variable's writer, so for any id with a writer
// component the reader list is empty by construction; non-empty lists
// name variables no component writes. The serve engine's admission
// gate uses this as the careful-write-order constraint for post-crash
// writes: a new write to x may proceed only once every component
// reading x has replayed, or its recomputations would observe the new
// value instead of the crash-time one. views must be the log view the
// plan was built from; numIDs is the interner's Len().
func (p *DensePlan) ReaderIndex(views []core.RecordView, numIDs int) [][]int32 {
	writer := p.WriterIndex(numIDs)
	out := make([][]int32, numIDs)
	for ci, c := range p.Components {
		for _, vi := range c.Idx {
			for _, x := range views[vi].Reads {
				if writer[x] == int32(ci) {
					continue // own write: not a stable dependency
				}
				rs := out[x]
				if n := len(rs); n > 0 && rs[n-1] == int32(ci) {
					continue // already recorded for this component
				}
				out[x] = append(rs, int32(ci))
			}
		}
	}
	return out
}

// FromViews is FromRecords on the dense representation: it plans the
// replay of the records named by replayIdx (indexes into views, in LSN
// order, as the decision phase yields them) with the same interference
// fusion, but the writer and pending-reader tables become flat slices
// indexed by interned variable id — numIDs is the interner's Len() —
// instead of maps keyed by variable name. Same partition, no hashing:
// TestFromViewsMatchesFromRecords asserts the correspondence.
func FromViews(views []core.RecordView, replayIdx []int, numIDs int) *DensePlan {
	uf := NewUnionFind(len(replayIdx))
	// writerOf[x] is the replay position of x's first scheduled writer
	// (-1 when none yet); pending[x] collects readers seen before any
	// writer — see FromRecords for why the first writer fuses with
	// them.
	writerOf := make([]int32, numIDs)
	for i := range writerOf {
		writerOf[i] = -1
	}
	pending := make([][]int32, numIDs)
	for i, vi := range replayIdx {
		v := &views[vi]
		for _, x := range v.Writes {
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
		for _, x := range v.Reads {
			if w := writerOf[x]; w >= 0 {
				uf.Union(int(w), i)
			} else {
				pending[x] = append(pending[x], int32(i))
			}
		}
	}

	// Group by root. Roots are replay positions, so flat slices replace
	// FromRecords' byRoot map, and a counting pass sizes two shared
	// arenas exactly: every component's Idx and Writes is a zero-growth
	// sub-slice, so building the plan costs a fixed handful of
	// allocations regardless of how many components there are.
	n := len(replayIdx)
	counts := make([]int32, n)
	wcounts := make([]int32, n)
	comps := 0
	for i := 0; i < n; i++ {
		root := uf.Find(i)
		if counts[root] == 0 {
			comps++
		}
		counts[root]++
	}
	totalWrites := 0
	for _, w := range writerOf {
		if w >= 0 {
			wcounts[uf.Find(int(w))]++
			totalWrites++
		}
	}

	backing := make([]DenseComponent, comps)
	idxArena := make([]int, n)
	writeArena := make([]uint32, totalWrites)
	// compAt[root] is the root's component index plus one (0: unseen).
	compAt := make([]int32, n)
	plan := &DensePlan{Ops: n, Components: make([]*DenseComponent, 0, comps), Idx: replayIdx, Of: make([]int32, n)}
	idxOff, wOff := 0, 0
	for i, vi := range replayIdx {
		root := uf.Find(i)
		if compAt[root] == 0 {
			c := &backing[len(plan.Components)]
			// Three-index sub-slices: appends fill the reserved region
			// and can never spill into a neighbour's.
			c.Idx = idxArena[idxOff:idxOff : idxOff+int(counts[root])]
			idxOff += int(counts[root])
			c.Writes = writeArena[wOff:wOff : wOff+int(wcounts[root])]
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
	// sorted and each id exactly once.
	for x, w := range writerOf {
		if w >= 0 {
			c := &backing[compAt[uf.Find(int(w))]-1]
			c.Writes = append(c.Writes, uint32(x))
		}
	}
	return plan
}
