package model

import (
	"fmt"
	"strconv"
)

// This file provides constructors for the operation shapes used throughout
// the paper's examples and by the workload generators: blind constant
// assignments (B: y←2), copies with offsets (A: x←y+1), increments
// (G: x←x+1), and multi-variable updates (C: ⟨x←x+1; y←y+1⟩).

// AssignConst returns the blind write x ← c, as in the paper's operation
// B: y←2. Its read set is empty, which is what makes x unexposed when the
// assignment is the minimal uninstalled access (Section 2.3).
func AssignConst(id OpID, x Var, c Value) *Op {
	return NewPosOp(id, fmt.Sprintf("%s<-%s", x, c), nil, []Var{x},
		func(_, out []Value) error { out[0] = c; return nil })
}

// CopyPlus returns x ← y + delta, as in the paper's operation A: x←y+1.
func CopyPlus(id OpID, x, y Var, delta int64) *Op {
	return NewPosOp(id, fmt.Sprintf("%s<-%s+%d", x, y, delta), []Var{y}, []Var{x},
		func(r, out []Value) error { out[0] = IntVal(AsInt(r[0]) + delta); return nil })
}

// Incr returns x ← x + delta, as in the paper's operation G: x←x+1.
func Incr(id OpID, x Var, delta int64) *Op {
	return CopyPlus(id, x, x, delta)
}

// IncrBoth returns ⟨x←x+dx; y←y+dy⟩, the two-variable atomic update of the
// paper's operation C and H.
func IncrBoth(id OpID, x Var, dx int64, y Var, dy int64) *Op {
	// Slots follow the sorted sets, not the argument order; when x and
	// y name one variable the y update wins, as the later map key did.
	ix, iy := 0, 1
	if y < x {
		ix, iy = 1, 0
	} else if y == x {
		iy = 0
	}
	return NewPosOp(id, fmt.Sprintf("<%s+=%d;%s+=%d>", x, dx, y, dy), []Var{x, y}, []Var{x, y},
		func(r, out []Value) error {
			vx, vy := IntVal(AsInt(r[ix])+dx), IntVal(AsInt(r[iy])+dy)
			out[ix], out[iy] = vx, vy
			return nil
		})
}

// ReadWrite returns an operation with arbitrary read and write sets whose
// every written variable receives a deterministic digest of the values
// read, salted with the operation id and the variable name. Workload
// generators use it to make histories whose replay correctness is
// sensitive to every read: any wrong read-set value during recovery
// produces a visibly wrong write.
func ReadWrite(id OpID, name string, reads, writes []Var) *Op {
	// The digest folds the reads in the caller's argument order,
	// duplicates included, not in the sorted order of Reads(): every
	// logged history and expected state was produced that way. slot[k]
	// is where the k-th argument's value sits in the positional reads.
	order := append([]Var(nil), reads...)
	slot := make([]int, len(order))
	var seeds []uint64 // per written variable: the digest after its fixed prefix
	o := NewPosOp(id, name, reads, writes, func(r, out []Value) error {
		for j, h := range seeds {
			for k, v := range order {
				h = fold(h, string(v), "=", string(r[slot[k]]))
			}
			out[j] = Value(strconv.FormatUint(h%(1<<62), 10))
		}
		return nil
	})
	for k, v := range order {
		slot[k] = indexVar(o.reads, v)
	}
	opSeed := fold(fnvOffset, "op:", strconv.FormatUint(uint64(id), 10))
	seeds = make([]uint64, len(o.writes))
	for j, w := range o.writes {
		seeds[j] = fold(opSeed, "var:", string(w))
	}
	return o
}

// The digest is an FNV-1a-style fold, one terminated term per input:
// "op:<id>", "var:<target>", then "<var>=<value>" for each read. The
// first two terms are fixed per written variable, so ReadWrite folds
// them once at construction.
const (
	fnvOffset = uint64(14695981039346656037)
	fnvPrime  = 1099511628211
)

// fold folds one term, the concatenation of parts, into h and closes
// it, so "ab","c" and "a","bc" as successive terms digest differently.
func fold(h uint64, parts ...string) uint64 {
	for _, s := range parts {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= fnvPrime
		}
	}
	h ^= 0xff
	return h * fnvPrime
}
