// Package model implements the system model of Section 2.1 of Lomet &
// Tuttle, "A Theory of Redo Recovery" (SIGMOD 2003): variables, values,
// states, and logged operations.
//
// A recoverable system has a set of variables and a set of values they can
// assume. A state maps each variable to a value. An operation is a
// deterministic function with a fixed read set and a fixed write set: it
// atomically reads the values of the variables in its read set and then
// writes values to the variables in its write set. Determinism is what
// makes redo recovery possible at all — an operation replayed against the
// same read-set values writes the same values (Section 3.3 of the paper).
//
// Values are immutable byte strings. This keeps states cheap to copy and
// compare while being rich enough to encode integers, tuples, and whole
// database pages (see internal/btree for page encoding).
package model

import (
	"fmt"
	"sort"
	"strconv"
)

// Var names a variable of the recoverable system. In a page-oriented
// database a Var is a page identifier; in the paper's small examples it is
// a name like "x" or "y".
type Var string

// Value is the immutable value of a variable. The zero Value is the value
// of every variable in the empty initial state; AsInt decodes it as 0.
type Value string

// IntVal encodes an integer as a Value.
func IntVal(i int64) Value { return Value(strconv.FormatInt(i, 10)) }

// AsInt decodes a Value written by IntVal. The zero Value decodes as 0.
// It panics on any other non-integer Value, which always indicates a
// workload bug (an integer operation applied to a non-integer variable).
func AsInt(v Value) int64 {
	if v == "" {
		return 0
	}
	i, err := strconv.ParseInt(string(v), 10, 64)
	if err != nil {
		panic(fmt.Sprintf("model: value %q is not an integer", v))
	}
	return i
}

// OpID uniquely identifies a logged operation. The conflict and
// installation graphs refer to nodes by the OpID of the operation
// labelling them, following the paper's convention that operations
// labelling a graph are distinct.
type OpID uint64

// ReadSet carries the values an operation observes, keyed by variable.
// Every variable in the operation's read set is present; a variable the
// state has never assigned appears with the zero Value.
type ReadSet map[Var]Value

// WriteSet carries the values an operation produces, keyed by variable.
type WriteSet map[Var]Value

// ApplyFunc computes an operation's writes from its reads. It must be
// deterministic and must populate exactly the operation's write set.
// It is the map-facing form NewOp accepts; an Op stores a PosFunc.
type ApplyFunc func(ReadSet) WriteSet

// PosFunc is the one representation of an operation's function: the
// fixed read and write sets of Section 2.1 make it positional.
// reads[i] is the value of Reads()[i]; the function must store the
// value of Writes()[j] into out[j] for every j, deterministically, and
// must not retain either slice — replay loops reuse both. An error
// reports a write set not honoured (only NewOp's map wrapper can).
type PosFunc func(reads, out []Value) error

// Op is a logged operation: a deterministic function with a fixed read set
// and a fixed write set (Section 2.1).
type Op struct {
	id     OpID
	name   string
	str    string // rendered label, precomputed: ops are immutable and the event stream renders every admitted record
	reads  []Var  // sorted, deduplicated
	writes []Var  // sorted, deduplicated
	fn     PosFunc
}

// NewPosOp constructs an operation from its positional function. The
// read and write sets are copied, deduplicated and sorted, and fn's
// slices follow the sorted sets (Reads(), Writes()), not the argument
// order. That fn writes exactly the write set is structural — out has
// one slot per written variable — so nothing is validated per call.
func NewPosOp(id OpID, name string, reads, writes []Var, fn PosFunc) *Op {
	if len(writes) == 0 {
		panic(fmt.Sprintf("model: operation %s (%d) has an empty write set; only state-changing operations are logged", name, id))
	}
	if fn == nil {
		panic(fmt.Sprintf("model: operation %s (%d) has a nil apply function", name, id))
	}
	return &Op{
		id:     id,
		name:   name,
		str:    fmt.Sprintf("%s#%d", name, id),
		reads:  normVars(reads),
		writes: normVars(writes),
		fn:     fn,
	}
}

// NewOp constructs an operation from a map function, which must
// deterministically produce a value for exactly the variables in
// writes. fn is wrapped once into the positional form; a map can omit
// a variable or carry an extra one, so the wrapper checks every call.
func NewOp(id OpID, name string, reads, writes []Var, fn ApplyFunc) *Op {
	if fn == nil {
		panic(fmt.Sprintf("model: operation %s (%d) has a nil apply function", name, id))
	}
	var o *Op
	o = NewPosOp(id, name, reads, writes, func(reads, out []Value) error {
		in := make(ReadSet, len(reads))
		for i, v := range o.reads {
			in[v] = reads[i]
		}
		ws := fn(in)
		if len(ws) != len(o.writes) {
			return fmt.Errorf("model: operation %s wrote %d variables, want write set of %d", o, len(ws), len(o.writes))
		}
		for j, v := range o.writes {
			val, ok := ws[v]
			if !ok {
				return fmt.Errorf("model: operation %s did not write %q, which is in its write set", o, v)
			}
			out[j] = val
		}
		return nil
	})
	return o
}

func normVars(vs []Var) []Var {
	seen := make(map[Var]struct{}, len(vs))
	out := make([]Var, 0, len(vs))
	for _, v := range vs {
		if _, ok := seen[v]; ok {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ID returns the operation's unique identifier.
func (o *Op) ID() OpID { return o.id }

// Name returns the operation's human-readable name.
func (o *Op) Name() string { return o.name }

// Reads returns the operation's read set in sorted order. The slice is
// shared; callers must not modify it.
func (o *Op) Reads() []Var { return o.reads }

// Writes returns the operation's write set in sorted order. The slice is
// shared; callers must not modify it.
func (o *Op) Writes() []Var { return o.writes }

// ReadsVar reports whether x is in the operation's read set.
func (o *Op) ReadsVar(x Var) bool { return containsVar(o.reads, x) }

// WritesVar reports whether x is in the operation's write set.
func (o *Op) WritesVar(x Var) bool { return containsVar(o.writes, x) }

// Accesses reports whether the operation reads or writes x.
func (o *Op) Accesses(x Var) bool { return o.ReadsVar(x) || o.WritesVar(x) }

// BlindlyWrites reports whether the operation writes x without reading it.
// Blind writes are what make a variable unexposed (Section 2.3).
func (o *Op) BlindlyWrites(x Var) bool { return o.WritesVar(x) && !o.ReadsVar(x) }

func containsVar(vs []Var, x Var) bool { return indexVar(vs, x) >= 0 }

// indexVar returns x's position in the sorted set vs, or -1.
func indexVar(vs []Var, x Var) int {
	i := sort.Search(len(vs), func(i int) bool { return vs[i] >= x })
	if i < len(vs) && vs[i] == x {
		return i
	}
	return -1
}

// Apply runs the operation's function positionally: reads holds the
// values of Reads() in order, and the values of Writes() are stored
// into out in order. len(reads) and len(out) must equal the set sizes.
// It touches no state; replay loops call it with buffers they reuse.
func (o *Op) Apply(reads, out []Value) error { return o.fn(reads, out) }

// ApplyFrom is Apply for callers that hold no buffers: it gathers the
// read set through read and returns the values of Writes(), in order.
func (o *Op) ApplyFrom(read func(Var) Value) ([]Value, error) {
	buf := make([]Value, len(o.reads)+len(o.writes))
	in, out := buf[:len(o.reads)], buf[len(o.reads):]
	for i, v := range o.reads {
		in[i] = read(v)
	}
	return out, o.fn(in, out)
}

// Compute is the map-facing edge: it gathers the read set from reads
// (absent variables read as the zero Value), runs the function, and
// returns the writes keyed by variable. It touches no state; use
// State.Apply to both compute and install the writes.
func (o *Op) Compute(reads ReadSet) (WriteSet, error) {
	out, err := o.ApplyFrom(func(v Var) Value { return reads[v] })
	if err != nil {
		return nil, err
	}
	ws := make(WriteSet, len(o.writes))
	for j, v := range o.writes {
		ws[v] = out[j]
	}
	return ws, nil
}

// String formats the operation as "name#id".
func (o *Op) String() string { return o.str }
