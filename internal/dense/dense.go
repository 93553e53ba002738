// Package dense is the interned, columnar representation the recovery
// hot path replays against. The map/string model of internal/model is
// the right interface for the theory — states are total functions over
// named variables, operations carry read/write sets as sorted Var
// slices — but it makes every replayed record pay for map allocation
// and string hashing. This package confines those costs to the edges:
//
//   - an Interner assigns each model.Var a small dense uint32 id during
//     the log scan (strings stop at the interning boundary);
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

	"redotheory/internal/model"
)

// Interner assigns dense uint32 ids to variables. Ids are allocated in
// first-seen order starting at 0, so an interner built from a log scan
// gives the log's working set a compact, cache-friendly index space.
//
// An Interner is not safe for concurrent interning, but once fully
// built it is immutable and may be shared by any number of concurrent
// readers (Var, Lookup, Len) — the replay engines build one per log
// view and share it across workers.
type Interner struct {
	ids  map[model.Var]uint32
	vars []model.Var
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{ids: make(map[model.Var]uint32)}
}

// Intern returns the id for v, assigning the next free id on first
// sight.
func (in *Interner) Intern(v model.Var) uint32 {
	if id, ok := in.ids[v]; ok {
		return id
	}
	id := uint32(len(in.vars))
	in.ids[v] = id
	in.vars = append(in.vars, v)
	return id
}

// Lookup returns the id for v and whether v has been interned.
func (in *Interner) Lookup(v model.Var) (uint32, bool) {
	id, ok := in.ids[v]
	return id, ok
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

// Since returns the variables with ids [id, Len()), in id order. The
// slice aliases the interner's storage, which interning only ever
// appends past, so another goroutine may read it while this one keeps
// interning; the caller must not modify it.
func (in *Interner) Since(id int) []model.Var { return in.vars[id:len(in.vars):len(in.vars)] }
