// Package dense is the interned, columnar representation the recovery
// hot path replays against. The map/string model of internal/model is
// the right interface for the theory — states are total functions over
// named variables, operations carry read/write sets as sorted Var
// slices — but it makes every replayed record pay for map allocation
// and string hashing. This package confines those costs to the edges:
//
//   - an Interner assigns each model.Var a small dense uint32 id when
//     the log appends the first record naming it (strings stop at the
//     interning boundary);
//   - a State stores values in a flat arena indexed by id, with a
//     presence bitmap standing in for map membership.
//
// Operations are positional functions over value slices aligned with
// their read and write sets (model.PosFunc), so a replayed record is a
// gather by id, one call, and a scatter by id (core.RecordView.Replay)
// with no map in between.
//
// The representation is an implementation detail of the replay engines
// in internal/core and internal/method: their public surfaces still
// speak *model.State, and the differential tests in internal/method
// assert that dense replay is state-for-state equal to the map-based
// Figure 6 procedure.
package dense

import (
	"fmt"
	"sync/atomic"

	"redotheory/internal/model"
)

// Interner assigns dense uint32 ids to variables. Ids are allocated in
// first-seen order starting at 0, so an interner built from a log scan
// gives the log's working set a compact, cache-friendly index space.
//
// Window hands out the interner as it stood after its first n ids:
// every window shares the id table, but sees, and Lookup reports, only
// its own ids. A table is written only by the one interner that holds
// it alone; once a window shares it, the next Intern of an unseen
// variable by any holder copies the table first (copy-on-mint). So a
// window nobody interns into never changes, and any number of
// goroutines may read it while its parent keeps interning. Interning
// is not safe for concurrent use.
type Interner struct {
	t    *table
	vars []model.Var
}

// table is the variable-to-id map the windows of an interner share. It
// may hold ids past a window's end, which that window does not see.
type table struct {
	ids    map[model.Var]uint32
	shared atomic.Bool
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{t: &table{ids: make(map[model.Var]uint32)}}
}

// Intern returns the id for v, assigning the next free id on first
// sight.
func (in *Interner) Intern(v model.Var) uint32 {
	if id, ok := in.Lookup(v); ok {
		return id
	}
	if in.t.shared.Load() {
		t := &table{ids: make(map[model.Var]uint32, len(in.vars)+1)}
		for id, x := range in.vars {
			t.ids[x] = uint32(id)
		}
		in.t = t
	}
	id := uint32(len(in.vars))
	in.t.ids[v] = id
	in.vars = append(in.vars, v)
	return id
}

// Window returns the interner as it stood after its first n ids were
// assigned. The window shares in's storage, and neither in's later ids
// nor the window's own (if it is interned into) are visible to the
// other.
func (in *Interner) Window(n int) Interner {
	in.t.shared.Store(true)
	return Interner{t: in.t, vars: in.vars[:n:n]}
}

// Lookup returns the id for v and whether v has been interned.
func (in *Interner) Lookup(v model.Var) (uint32, bool) {
	id, ok := in.t.ids[v]
	return id, ok && int(id) < len(in.vars)
}

// Var returns the variable with the given id. It panics on an id the
// interner never assigned: a dense id is only meaningful relative to
// the interner that minted it, and mixing interners is a programming
// error no fallback should paper over.
func (in *Interner) Var(id uint32) model.Var {
	if int(id) >= len(in.vars) {
		panic(fmt.Sprintf("dense: unknown variable id %d (interner holds %d ids)", id, len(in.vars)))
	}
	return in.vars[id]
}

// Len returns the number of interned variables; valid ids are
// exactly [0, Len).
func (in *Interner) Len() int { return len(in.vars) }
