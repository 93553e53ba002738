package model

import (
	"testing"
	"testing/quick"
)

func TestIntValRoundTrip(t *testing.T) {
	for _, i := range []int64{0, 1, -1, 42, -9999999, 1 << 40} {
		if got := AsInt(IntVal(i)); got != i {
			t.Errorf("AsInt(IntVal(%d)) = %d", i, got)
		}
	}
}

func TestAsIntZeroValue(t *testing.T) {
	if got := AsInt(""); got != 0 {
		t.Errorf("AsInt(zero) = %d, want 0", got)
	}
}

func TestAsIntPanicsOnGarbage(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AsInt did not panic on non-integer value")
		}
	}()
	AsInt("not a number")
}

func TestNewOpNormalizesSets(t *testing.T) {
	o := NewOp(1, "op", []Var{"z", "a", "z"}, []Var{"b", "b", "a"},
		func(ReadSet) WriteSet { return WriteSet{"a": "1", "b": "2"} })
	if got := o.Reads(); len(got) != 2 || got[0] != "a" || got[1] != "z" {
		t.Errorf("Reads() = %v, want [a z]", got)
	}
	if got := o.Writes(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Writes() = %v, want [a b]", got)
	}
}

func TestNewOpRejectsEmptyWriteSet(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewOp did not panic on empty write set")
		}
	}()
	NewOp(1, "bad", []Var{"x"}, nil, func(ReadSet) WriteSet { return nil })
}

func TestOpPredicates(t *testing.T) {
	o := NewOp(7, "o", []Var{"x"}, []Var{"x", "y"},
		func(r ReadSet) WriteSet { return WriteSet{"x": r["x"], "y": "1"} })
	if !o.ReadsVar("x") || o.ReadsVar("y") {
		t.Error("ReadsVar wrong")
	}
	if !o.WritesVar("x") || !o.WritesVar("y") || o.WritesVar("z") {
		t.Error("WritesVar wrong")
	}
}

func TestComputeValidatesWriteSet(t *testing.T) {
	tooFew := NewOp(1, "few", nil, []Var{"x", "y"},
		func(ReadSet) WriteSet { return WriteSet{"x": "1"} })
	if _, err := tooFew.Compute(nil); err == nil {
		t.Error("Compute accepted a write set that is too small")
	}
	wrongVar := NewOp(2, "wrong", nil, []Var{"x"},
		func(ReadSet) WriteSet { return WriteSet{"z": "1"} })
	if _, err := wrongVar.Compute(nil); err == nil {
		t.Error("Compute accepted a write to a variable outside the write set")
	}
}

func TestStateSetGetClone(t *testing.T) {
	s := NewState()
	s.SetInt("x", 3)
	if AsInt(s.Get("x")) != 3 {
		t.Fatalf("x = %d", AsInt(s.Get("x")))
	}
	c := s.Clone()
	c.SetInt("x", 9)
	if AsInt(s.Get("x")) != 3 {
		t.Error("Clone is not independent")
	}
}

func TestStateZeroValueErasure(t *testing.T) {
	s := NewState()
	s.Set("x", "7")
	s.Set("x", "")
	t2 := NewState()
	if !s.Equal(t2) {
		t.Error("setting the zero value should make the state equal to empty")
	}
	if s.Len() != 0 {
		t.Errorf("Len = %d, want 0", s.Len())
	}
}

func TestStateEqualAndDiff(t *testing.T) {
	a := StateOf(map[Var]Value{"x": "1", "y": "2"})
	b := StateOf(map[Var]Value{"x": "1", "y": "3", "z": "4"})
	if a.Equal(b) {
		t.Error("Equal on differing states")
	}
	d := a.Diff(b)
	if len(d) != 2 || d[0] != "y" || d[1] != "z" {
		t.Errorf("Diff = %v, want [y z]", d)
	}
}

func TestStateApply(t *testing.T) {
	s := NewState()
	s.SetInt("y", 2)
	a := CopyPlus(1, "x", "y", 1)
	ws, err := s.Apply(a)
	if err != nil {
		t.Fatal(err)
	}
	if AsInt(ws["x"]) != 3 || AsInt(s.Get("x")) != 3 {
		t.Errorf("x = %d, want 3", AsInt(s.Get("x")))
	}
}

func TestSequencePaperScenario1(t *testing.T) {
	// A: x<-y+1 then B: y<-2, from x=y=0 (Figure 1).
	a := CopyPlus(1, "x", "y", 1)
	b := AssignConst(2, "y", IntVal(2))
	states := []*State{NewState()}
	for _, o := range []*Op{a, b} {
		s := states[len(states)-1].Clone()
		if _, err := s.Apply(o); err != nil {
			t.Fatal(err)
		}
		states = append(states, s)
	}
	if AsInt(states[1].Get("x")) != 1 || AsInt(states[1].Get("y")) != 0 {
		t.Errorf("S1 = %v, want x=1 y=0", states[1])
	}
	if AsInt(states[2].Get("x")) != 1 || AsInt(states[2].Get("y")) != 2 {
		t.Errorf("S2 = %v, want x=1 y=2", states[2])
	}
}

func TestReadWriteDeterminism(t *testing.T) {
	o := ReadWrite(5, "rw", []Var{"a", "b"}, []Var{"c", "d"})
	r := ReadSet{"a": "1", "b": "2"}
	w1, err := o.Compute(r)
	if err != nil {
		t.Fatal(err)
	}
	w2, _ := o.Compute(r)
	if w1["c"] != w2["c"] || w1["d"] != w2["d"] {
		t.Error("ReadWrite is not deterministic")
	}
	if w1["c"] == w1["d"] {
		t.Error("distinct target variables should get distinct digests")
	}
	// Changing any read value must change every written value.
	w3, _ := o.Compute(ReadSet{"a": "1", "b": "3"})
	if w3["c"] == w1["c"] || w3["d"] == w1["d"] {
		t.Error("digest is insensitive to a read-set value")
	}
}

func TestReadWriteSensitivityProperty(t *testing.T) {
	o := ReadWrite(9, "rw", []Var{"a"}, []Var{"z"})
	f := func(x, y int64) bool {
		if x == y {
			return true
		}
		w1, _ := o.Compute(ReadSet{"a": IntVal(x)})
		w2, _ := o.Compute(ReadSet{"a": IntVal(y)})
		return w1["z"] != w2["z"]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIncrBothAtomicUpdate(t *testing.T) {
	s := NewState()
	s.SetInt("x", 1)
	s.SetInt("y", 10)
	c := IncrBoth(1, "x", 2, "y", -3)
	if _, err := s.Apply(c); err != nil {
		t.Fatal(err)
	}
	if AsInt(s.Get("x")) != 3 || AsInt(s.Get("y")) != 7 {
		t.Errorf("state = %v, want x=3 y=7", s)
	}
}

func TestStateString(t *testing.T) {
	s := StateOf(map[Var]Value{"y": "2", "x": "1"})
	if got := s.String(); got != "{x=1 y=2}" {
		t.Errorf("String = %q", got)
	}
}
