package method

import (
	"fmt"
	"sort"

	"redotheory/internal/cache"
	"redotheory/internal/core"
	"redotheory/internal/graph"
	"redotheory/internal/model"
)

// GroupLSN extends generalized LSN recovery to operations with
// multi-page write sets, the Section 5 / Section 7 problem of "atomic
// changes to multiple variables in the state": an operation writing
// pages {x, y} must have both or neither of its effects in stable
// storage, so the cache installs the pages of such an operation as one
// atomic multi-page write group. Collapsing each page's updates into a
// single cache copy chains these obligations together — exactly the
// paper's warning that merging write graph nodes "can lead to a single
// write graph node writing a larger number of variables than any
// operation does on its own" — and the method measures how large the
// resulting atomic transitions get (MaxGroupSize). Careful write-order
// dependencies work as in GenLSN, with one extension: a dependency whose
// prerequisite lands in the same atomic group is discharged by the
// atomicity itself, which also dissolves the crosswise-dependency
// deadlocks that stall the single-copy page-at-a-time cache.
type GroupLSN struct {
	*base
	// groupOf maps an operation's LSN to the pages it wrote, for the
	// flush-closure computation.
	groupOf map[core.LSN][]model.Var
	// readersSince tracks readers of each page's current version, with
	// every page the reader wrote.
	readersSince map[model.Var][]groupReaderRef
	// MaxGroupSize records the largest atomic write group installed.
	MaxGroupSize int
	// GroupFlushes counts multi-page atomic installs.
	GroupFlushes int
}

type groupReaderRef struct {
	lsn        core.LSN
	wrotePages []model.Var
}

// NewGroupLSN returns a group-atomic LSN DB over the initial state.
func NewGroupLSN(initial *model.State) *GroupLSN {
	return &GroupLSN{
		base:         newBase(initial),
		groupOf:      make(map[core.LSN][]model.Var),
		readersSince: make(map[model.Var][]groupReaderRef),
	}
}

// Name returns "grouplsn".
func (d *GroupLSN) Name() string { return "grouplsn" }

// Exec runs an operation with any read set and any non-empty write set.
func (d *GroupLSN) Exec(op *model.Op) error {
	ws, err := d.computeThrough(op)
	if err != nil {
		return err
	}
	rec := d.log.Append(op, RecordSize(op, ws))
	writes := op.Writes()
	if len(writes) > 1 {
		d.groupOf[rec.LSN] = writes
	}
	// Read-write edges into this operation: each overwritten page's
	// current readers must have every page they wrote installed first.
	for _, page := range writes {
		for _, ref := range d.readersSince[page] {
			for _, wp := range ref.wrotePages {
				if wp != page {
					d.cache.AddDep(cache.Dep{
						Prereq: wp, PrereqLSN: ref.lsn,
						Dependent: page, DepLSN: rec.LSN,
					})
				}
			}
		}
		d.readersSince[page] = nil
	}
	for _, r := range op.Reads() {
		if op.WritesVar(r) {
			continue
		}
		d.readersSince[r] = append(d.readersSince[r], groupReaderRef{lsn: rec.LSN, wrotePages: writes})
	}
	for j, page := range writes {
		d.cache.ApplyWrite(page, ws[j], rec.LSN)
	}
	d.noteExec()
	return nil
}

// closure returns the pages that must be installed atomically with the
// given page: the transitive closure over multi-page operations among
// the unflushed updates, in sorted order.
func (d *GroupLSN) closure(start model.Var) []model.Var {
	seen := graph.NewSet(start)
	stack := []model.Var{start}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, lsn := range d.cache.OpsSince(p) {
			for _, q := range d.groupOf[lsn] {
				if !seen.Has(q) {
					seen.Add(q)
					stack = append(stack, q)
				}
			}
		}
	}
	out := make([]model.Var, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// flushClosure installs the atomic closure of one page if its external
// dependencies allow.
func (d *GroupLSN) flushClosure(start model.Var) error {
	group := d.closure(start)
	if err := d.cache.FlushGroup(group); err != nil {
		return err
	}
	d.GroupFlushes++
	if len(group) > d.MaxGroupSize {
		d.MaxGroupSize = len(group)
	}
	return nil
}

// FlushOne installs one atomic closure whose external dependencies are
// satisfied; if every closure is blocked (a dependency cycle across
// closures), it installs all dirty pages as a single group — the "large
// atomic transition" the paper warns about, measured by MaxGroupSize.
func (d *GroupLSN) FlushOne() bool {
	dirty := d.cache.DirtyPages()
	if len(dirty) == 0 {
		return false
	}
	tried := graph.NewSet[model.Var]()
	for _, p := range dirty {
		if tried.Has(p) {
			continue
		}
		for _, q := range d.closure(p) {
			tried.Add(q)
		}
		if err := d.flushClosure(p); err == nil {
			return true
		}
	}
	// Everything blocked: install the whole dirty set atomically.
	if err := d.cache.FlushGroup(dirty); err != nil {
		return false
	}
	d.GroupFlushes++
	if len(dirty) > d.MaxGroupSize {
		d.MaxGroupSize = len(dirty)
	}
	return true
}

// RedoTest: an operation is installed iff every page it wrote carries at
// least its LSN — group-atomic installation guarantees all-or-nothing,
// so testing any one page would suffice, but checking them all doubles
// as a runtime assertion of that atomicity. The stable page-LSN table is
// never updated (see pageLSNTest). Checkpoints are base's fuzzy ones.
func (d *GroupLSN) RedoTest() core.RedoTest {
	lsns := d.store.LSNs()
	return func(r *core.Record, _ core.Analysis) bool {
		op, lsn := r.Op, r.LSN
		installedPages := 0
		for _, page := range op.Writes() {
			if lsns[page] >= lsn {
				installedPages++
			}
		}
		if installedPages == len(op.Writes()) {
			return false
		}
		if installedPages != 0 {
			panic(fmt.Sprintf("grouplsn: operation %s partially installed (%d of %d pages): atomic group invariant broken",
				op, installedPages, len(op.Writes())))
		}
		return true
	}
}

// Crash discards volatile state including the group and reader tracking.
func (d *GroupLSN) Crash() {
	d.base.Crash()
	d.groupOf = make(map[core.LSN][]model.Var)
	d.readersSince = make(map[model.Var][]groupReaderRef)
}

var _ DB = (*GroupLSN)(nil)
