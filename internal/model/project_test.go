package model

import (
	"strings"
	"testing"
)

func TestProjectSplitsWritesByShard(t *testing.T) {
	// A two-"shard" transfer: reads a and b, writes both. Shard A owns
	// a, shard B owns b.
	op := NewOp(7, "xfer", []Var{"a", "b"}, []Var{"a", "b"}, func(r ReadSet) WriteSet {
		return WriteSet{
			"a": IntVal(AsInt(r["a"]) - 5),
			"b": IntVal(AsInt(r["b"]) + 5),
		}
	})
	// Exec-time values: a=100 (local to A), b=40 (remote to A).
	projA := Project(101, op, []Var{"a"}, []Var{"a"}, ReadSet{"b": IntVal(40)})
	projB := Project(102, op, []Var{"b"}, []Var{"b"}, ReadSet{"a": IntVal(100)})

	sA := StateOf(map[Var]Value{"a": IntVal(100)})
	if _, err := sA.Apply(projA); err != nil {
		t.Fatal(err)
	}
	if got := AsInt(sA.Get("a")); got != 95 {
		t.Errorf("shard A: a = %d, want 95", got)
	}
	sB := StateOf(map[Var]Value{"b": IntVal(40)})
	if _, err := sB.Apply(projB); err != nil {
		t.Fatal(err)
	}
	if got := AsInt(sB.Get("b")); got != 45 {
		t.Errorf("shard B: b = %d, want 45", got)
	}
	if projA.ID() != 101 || projB.ID() != 102 {
		t.Error("projection ids not taken from the coordinator")
	}
	if !strings.Contains(projA.String(), "t7") {
		t.Errorf("projection label %q does not carry the transaction id", projA)
	}
}

func TestProjectLocalReadsStayLive(t *testing.T) {
	// Replaying the projection against a different local value must
	// produce a different write — local reads are not baked.
	op := NewOp(3, "sum", []Var{"a", "b"}, []Var{"a"}, func(r ReadSet) WriteSet {
		return WriteSet{"a": IntVal(AsInt(r["a"]) + AsInt(r["b"]))}
	})
	proj := Project(31, op, []Var{"a"}, []Var{"a"}, ReadSet{"b": IntVal(10)})
	out1, err := proj.Compute(ReadSet{"a": IntVal(1)})
	if err != nil {
		t.Fatal(err)
	}
	out2, err := proj.Compute(ReadSet{"a": IntVal(2)})
	if err != nil {
		t.Fatal(err)
	}
	if AsInt(out1["a"]) != 11 || AsInt(out2["a"]) != 12 {
		t.Errorf("projection not live on local reads: %v then %v", out1, out2)
	}
}

func TestProjectPanicsOnMalformedProjection(t *testing.T) {
	op := NewOp(1, "w", []Var{"a"}, []Var{"a", "b"}, func(r ReadSet) WriteSet {
		return WriteSet{"a": r["a"], "b": r["a"]}
	})
	cases := []struct {
		name string
		call func()
	}{
		{"empty local writes", func() { Project(2, op, nil, nil, nil) }},
		{"write not in op", func() { Project(2, op, nil, []Var{"c"}, ReadSet{"a": ""}) }},
		{"read not in op", func() { Project(2, op, []Var{"z"}, []Var{"a"}, ReadSet{"a": ""}) }},
		{"missing baked value", func() { Project(2, op, nil, []Var{"b"}, nil) }},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			tc.call()
		}()
	}
}
