package model

import (
	"fmt"
	"sort"
	"strings"
)

// State maps each variable to a value (Section 2.1). A State is a total
// function: variables that were never assigned have the zero Value. States
// are mutable; use Clone to snapshot.
type State struct {
	m map[Var]Value
}

// NewState returns the empty state, in which every variable has the zero
// Value.
func NewState() *State { return &State{m: make(map[Var]Value)} }

// StateOf builds a state from an assignment map. The map is copied.
func StateOf(assign map[Var]Value) *State {
	s := NewState()
	for v, val := range assign {
		s.Set(v, val)
	}
	return s
}

// Get returns the value of x. Unassigned variables have the zero Value.
func (s *State) Get(x Var) Value { return s.m[x] }

// GetInt returns the value of x decoded as an integer.
func (s *State) GetInt(x Var) int64 { return AsInt(s.m[x]) }

// Set assigns v to x. Assigning the zero Value erases the entry, so states
// that agree on all variables compare Equal regardless of assignment
// history.
func (s *State) Set(x Var, v Value) {
	if v == "" {
		delete(s.m, x)
		return
	}
	s.m[x] = v
}

// SetInt assigns the integer i to x.
func (s *State) SetInt(x Var, i int64) { s.Set(x, IntVal(i)) }

// Clone returns an independent copy of the state.
func (s *State) Clone() *State {
	c := &State{m: make(map[Var]Value, len(s.m))}
	for v, val := range s.m {
		c.m[v] = val
	}
	return c
}

// Equal reports whether the two states assign the same value to every
// variable.
func (s *State) Equal(t *State) bool {
	if len(s.m) != len(t.m) {
		return false
	}
	for v, val := range s.m {
		if t.m[v] != val {
			return false
		}
	}
	return true
}

// EqualOn reports whether the two states agree on every variable in vars.
func (s *State) EqualOn(t *State, vars []Var) bool {
	for _, v := range vars {
		if s.m[v] != t.m[v] {
			return false
		}
	}
	return true
}

// Diff returns the variables on which s and t disagree, in sorted order.
func (s *State) Diff(t *State) []Var {
	seen := make(map[Var]struct{})
	var out []Var
	for v := range s.m {
		if s.m[v] != t.m[v] {
			out = append(out, v)
			seen[v] = struct{}{}
		}
	}
	for v := range t.m {
		if _, ok := seen[v]; ok {
			continue
		}
		if s.m[v] != t.m[v] {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Vars returns the variables with non-zero values, in sorted order.
func (s *State) Vars() []Var {
	out := make([]Var, 0, len(s.m))
	for v := range s.m {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Len returns the number of variables with non-zero values.
func (s *State) Len() int { return len(s.m) }

// Apply runs the operation against the state and installs its writes,
// mutating the state in place. It returns the write set the operation
// produced.
func (s *State) Apply(o *Op) (WriteSet, error) {
	ws, err := o.Compute(s.m)
	if err != nil {
		return nil, err
	}
	for v, val := range ws {
		s.Set(v, val)
	}
	return ws, nil
}

// MustApply is Apply for workloads whose operations are known well-formed;
// it panics on error.
func (s *State) MustApply(o *Op) WriteSet {
	ws, err := s.Apply(o)
	if err != nil {
		panic(err)
	}
	return ws
}

// String renders the state as "{x=1 y=2}" with variables in sorted order.
func (s *State) String() string {
	vars := s.Vars()
	parts := make([]string, len(vars))
	for i, v := range vars {
		parts[i] = fmt.Sprintf("%s=%s", v, s.m[v])
	}
	return "{" + strings.Join(parts, " ") + "}"
}
