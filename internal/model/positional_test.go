package model

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// refDigest is ReadWrite's digest as it was written over maps, with
// fmt.Sprintf and string concatenation: the reference the positional
// fold must match byte for byte. order is ReadWrite's reads argument as
// the caller passed it.
func refDigest(id OpID, target Var, order []Var, r ReadSet) Value {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime
		}
		h ^= 0xff
		h *= prime
	}
	mix(fmt.Sprintf("op:%d", id))
	mix("var:" + string(target))
	for _, v := range order {
		mix(string(v) + "=" + string(r[v]))
	}
	return IntVal(int64(h % (1 << 62)))
}

// TestPositionalMatchesMap: for every constructor, Project, and a
// map-built NewOp, the positional function (Apply over slices aligned
// with the sorted sets) agrees with the map edge (Compute) and with an
// independent map-form reference of the same operation, over
// randomized read values including the zero Value.
func TestPositionalMatchesMap(t *testing.T) {
	sumFn := func(r ReadSet) WriteSet {
		return WriteSet{"a": IntVal(AsInt(r["a"]) + AsInt(r["q"])), "m": IntVal(AsInt(r["m"]) - AsInt(r["q"]))}
	}
	sum := NewOp(9, "sum", []Var{"q", "a", "m"}, []Var{"m", "a"}, sumFn)
	cases := []struct {
		op  *Op
		ref ApplyFunc
	}{
		{AssignConst(1, "x", "7"), func(ReadSet) WriteSet { return WriteSet{"x": "7"} }},
		{CopyPlus(2, "x", "y", 3), func(r ReadSet) WriteSet { return WriteSet{"x": IntVal(AsInt(r["y"]) + 3)} }},
		{Incr(3, "x", -2), func(r ReadSet) WriteSet { return WriteSet{"x": IntVal(AsInt(r["x"]) - 2)} }},
		{IncrBoth(4, "x", 1, "y", 2), func(r ReadSet) WriteSet {
			return WriteSet{"x": IntVal(AsInt(r["x"]) + 1), "y": IntVal(AsInt(r["y"]) + 2)}
		}},
		// Argument order against the sorted order, and one variable twice.
		{IncrBoth(5, "y", 10, "x", 20), func(r ReadSet) WriteSet {
			return WriteSet{"y": IntVal(AsInt(r["y"]) + 10), "x": IntVal(AsInt(r["x"]) + 20)}
		}},
		{IncrBoth(6, "x", 1, "x", 5), func(r ReadSet) WriteSet { return WriteSet{"x": IntVal(AsInt(r["x"]) + 5)} }},
		{ReadWrite(7, "rw", []Var{"c", "a", "b"}, []Var{"z", "a"}), func(r ReadSet) WriteSet {
			order := []Var{"c", "a", "b"} // argument order, not sorted
			return WriteSet{"a": refDigest(7, "a", order, r), "z": refDigest(7, "z", order, r)}
		}},
		{ReadWrite(8, "blind", nil, []Var{"w"}), func(r ReadSet) WriteSet {
			return WriteSet{"w": refDigest(8, "w", nil, r)}
		}},
		{sum, sumFn},
		// Local reads live, the remote read baked at 40; only m is kept.
		{Project(10, sum, []Var{"m"}, []Var{"m"}, ReadSet{"a": "5", "q": "40"}), func(r ReadSet) WriteSet {
			return WriteSet{"m": IntVal(AsInt(r["m"]) - 40)}
		}},
		{Project(11, ReadWrite(12, "t", []Var{"p", "r"}, []Var{"p", "r"}), []Var{"r"}, []Var{"r"}, ReadSet{"p": "baked"}),
			func(r ReadSet) WriteSet {
				return WriteSet{"r": refDigest(12, "r", []Var{"p", "r"}, ReadSet{"p": "baked", "r": r["r"]})}
			}},
	}
	rng := rand.New(rand.NewSource(13))
	for _, tc := range cases {
		for trial := 0; trial < 50; trial++ {
			in := make(ReadSet)
			reads := make([]Value, len(tc.op.Reads()))
			for i, v := range tc.op.Reads() {
				if rng.Intn(4) > 0 { // else the zero Value, absent from the map
					reads[i] = IntVal(rng.Int63n(2000) - 1000)
					in[v] = reads[i]
				}
			}
			want := tc.ref(in)
			out := make([]Value, len(tc.op.Writes()))
			if err := tc.op.Apply(reads, out); err != nil {
				t.Fatalf("%s: Apply: %v", tc.op, err)
			}
			got := make(WriteSet, len(out))
			for j, v := range tc.op.Writes() {
				got[v] = out[j]
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s on %v: positional wrote %v, map reference %v", tc.op, in, got, want)
			}
			ws, err := tc.op.Compute(in)
			if err != nil || !reflect.DeepEqual(ws, want) {
				t.Fatalf("%s on %v: Compute = %v, %v; map reference %v", tc.op, in, ws, err, want)
			}
		}
	}
}

// TestReadWriteDigestGoldens pins ReadWrite's written values to the
// bytes the map implementation produced (captured at the commit before
// the positional rewrite). Logs, repro artifacts and every oracle's
// expected state hold these values; a digest that changes one byte is a
// format break, not an optimization.
func TestReadWriteDigestGoldens(t *testing.T) {
	cases := []struct {
		id     OpID
		reads  []Var
		writes []Var
		in     ReadSet
		want   []Value // aligned with the sorted write set
	}{
		{1, nil, []Var{"x"}, ReadSet{}, []Value{"2357268518159382224"}},
		{7, []Var{"a"}, []Var{"a"}, ReadSet{"a": ""}, []Value{"2648763497155577970"}},
		{7, []Var{"a"}, []Var{"a"}, ReadSet{"a": "5"}, []Value{"3348514951194602337"}},
		{42, []Var{"a", "b"}, []Var{"x", "y"}, ReadSet{"a": "1", "b": ""}, []Value{"263855927523901093", "1203489502729502434"}},
		{42, []Var{"b", "a"}, []Var{"y", "x"}, ReadSet{"a": "hello", "b": "world"}, []Value{"3792771436209971152", "1181064855969772805"}},
		{1099511627779, []Var{"p003", "p001"}, []Var{"p001"}, ReadSet{"p001": "4611686018427387903", "p003": "-17"}, []Value{"1419417384288944543"}},
		{18446744073709551615, []Var{"p1", "p2", "p3"}, []Var{"p2", "q"}, ReadSet{"p1": "", "p2": "", "p3": ""}, []Value{"1703683180853263246", "2620320299214946359"}},
		// Unsorted reads with a duplicate: folded in argument order.
		{5, []Var{"b", "a", "b"}, []Var{"a", "a"}, ReadSet{"a": "1", "b": "2"}, []Value{"2549493591306312115"}},
		{1000003, []Var{"pg"}, []Var{"pg", "pg2"}, ReadSet{"pg": "a=b\xff\x00c"}, []Value{"1639236677448720697", "4600494254246317713"}},
	}
	for _, tc := range cases {
		o := ReadWrite(tc.id, "rw", tc.reads, tc.writes)
		ws, err := o.Compute(tc.in)
		if err != nil {
			t.Fatal(err)
		}
		for j, w := range o.Writes() {
			if ws[w] != tc.want[j] {
				t.Errorf("ReadWrite(%d, reads %v)(%v)[%s] = %s, golden %s", tc.id, tc.reads, tc.in, w, ws[w], tc.want[j])
			}
		}
	}
}
