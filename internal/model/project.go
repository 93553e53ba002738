package model

import "fmt"

// Project returns a shard-local projection of op: an operation that
// reads only localReads, writes only localWrites, and computes those
// writes by running op's own function over the full read set — live
// local values merged with the baked remote values captured when the
// cross-shard transaction executed.
//
// Only remote reads are baked. Local reads stay live so replaying the
// projection remains sensitive to the local log order, exactly like any
// other operation: replay against wrong local values produces visibly
// wrong writes. Baking the remote values is sound because replay under
// the recovery invariant reconstructs each operation's execution values
// (the paper's Theorem 3) — the remote shard's replay of its own
// prefix rebuilds the very values captured here.
//
// The projection is deterministic iff op is, and it renders as
// "name~t<op-id>#<id>" so the originating transaction stays visible in
// logs and event streams. Project panics on a malformed projection
// (reads/writes not subsets of op's, empty local write set, or a remote
// read without a baked value): projections are built by the sharding
// coordinator, so any of these is a coordinator bug.
func Project(id OpID, op *Op, localReads, localWrites []Var, remote ReadSet) *Op {
	lr := normVars(localReads)
	lw := normVars(localWrites)
	if len(lw) == 0 {
		panic(fmt.Sprintf("model: projection of %s has an empty local write set; read-only participants are not logged", op))
	}
	for _, v := range lr {
		if !op.ReadsVar(v) {
			panic(fmt.Sprintf("model: projection of %s keeps %q, which %s does not read", op, v, op))
		}
	}
	for _, v := range lw {
		if !op.WritesVar(v) {
			panic(fmt.Sprintf("model: projection of %s keeps %q, which %s does not write", op, v, op))
		}
	}
	// full is op's read vector with the remote values baked in; local[i]
	// is the op read slot that the projection's i-th read fills, and
	// kept[j] the op write slot its j-th write is taken from.
	full := make([]Value, len(op.reads))
	local := make([]int, 0, len(lr))
	for i, v := range op.reads {
		if containsVar(lr, v) {
			local = append(local, i)
			continue
		}
		val, ok := remote[v]
		if !ok {
			panic(fmt.Sprintf("model: projection of %s lacks a baked value for remote read %q", op, v))
		}
		full[i] = val
	}
	kept := make([]int, 0, len(lw))
	for j, v := range op.writes {
		if containsVar(lw, v) {
			kept = append(kept, j)
		}
	}
	name := fmt.Sprintf("%s~t%d", op.name, op.id)
	return NewPosOp(id, name, lr, lw, func(r, out []Value) error {
		// One buffer per call, not per projection: an operation may be
		// replayed by several recoveries at once.
		buf := make([]Value, len(full)+len(op.writes))
		in, all := buf[:len(full)], buf[len(full):]
		copy(in, full)
		for i, slot := range local {
			in[slot] = r[i]
		}
		if err := op.fn(in, all); err != nil {
			return err
		}
		for j, slot := range kept {
			out[j] = all[slot]
		}
		return nil
	})
}
