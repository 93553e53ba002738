package dense

import "redotheory/internal/model"

// State is the columnar form of a model.State restricted to an
// interner's variables: a flat value arena indexed by variable id plus
// a presence bitmap mirroring the map representation's membership rule
// (a variable is present iff its value is non-zero). Variables outside
// the interner are untouched by construction — replay only reads and
// writes interned variables — so converting back never loses them.
type State struct {
	in     *Interner
	values []model.Value
	dirty  []uint64
}

// FromState projects s onto the interner's variables. Variables s does
// not assign get the zero Value, exactly as model.State.Get would
// report them.
func FromState(in *Interner, s *model.State) *State {
	n := in.Len()
	d := &State{in: in, values: make([]model.Value, n), dirty: make([]uint64, (n+63)/64)}
	for id, v := range in.vars {
		d.Set(uint32(id), s.Get(v))
	}
	return d
}

// Value returns the value of the variable with the given id.
func (d *State) Value(id uint32) model.Value { return d.values[id] }

// Set assigns v to the variable with the given id, maintaining the
// presence bitmap: assigning the zero Value clears the bit, mirroring
// model.State.Set's erase-on-zero rule.
func (d *State) Set(id uint32, v model.Value) {
	d.values[id] = v
	if v == "" {
		d.dirty[id>>6] &^= 1 << (id & 63)
	} else {
		d.dirty[id>>6] |= 1 << (id & 63)
	}
}

// Get returns the value of the named variable and whether the variable
// is interned. Callers serving reads straight off the arena (the
// instant-restart engine's hot path) use the second return to fall back
// to a map-backed state for variables outside the interner's id space.
// Get reads only the value slot, never the presence bitmap, so it is
// safe concurrent with Mark on other ids.
func (d *State) Get(v model.Var) (model.Value, bool) {
	id, ok := d.in.Lookup(v)
	if !ok {
		return "", false
	}
	return d.values[id], true
}

// StoreRaw writes the value slot only, leaving the presence bitmap
// untouched. Distinct value slots are distinct memory locations, so
// concurrent writers storing to disjoint ids are race-free — bitmap
// words are shared across 64 ids and would not be. Callers must Mark
// the written ids once the concurrent phase is over; the parallel
// replay engine's merge phase does.
func (d *State) StoreRaw(id uint32, v model.Value) { d.values[id] = v }

// Mark recomputes the presence bit of id from its current value,
// restoring the bitmap invariant after a StoreRaw phase.
func (d *State) Mark(id uint32) { d.Set(id, d.values[id]) }

// WriteBack installs the values of the given ids into dst, the
// map-backed state the dense replay ran on behalf of. model.State.Set
// erases zero values, so membership converges regardless of what dst
// held before.
func (d *State) WriteBack(dst *model.State, ids []uint32) {
	for _, id := range ids {
		dst.Set(d.in.Var(id), d.values[id])
	}
}

// toState converts the dense state to a fresh map-backed state.
func (d *State) toState() *model.State {
	s := model.NewState()
	for id, v := range d.values {
		if v != "" {
			s.Set(d.in.Var(uint32(id)), v)
		}
	}
	return s
}

// Equal reports whether the two dense states assign the same value to
// every variable. States over the same interner compare arenas
// directly; otherwise it falls back to the map comparison.
func (d *State) Equal(o *State) bool {
	if d.in == o.in {
		for id := range d.values {
			if d.values[id] != o.values[id] {
				return false
			}
		}
		return true
	}
	return d.toState().Equal(o.toState())
}
