package dense

import (
	"fmt"
	"math/rand"
	"testing"

	"redotheory/internal/model"
)

// TestInternerRoundTrip: interning is a bijection between the seen
// variables and [0, Len): Intern is idempotent, Var inverts it, and
// ids are dense in first-seen order.
func TestInternerRoundTrip(t *testing.T) {
	in := NewInterner()
	vars := []model.Var{"x", "y", "pg00", "pg01", "x:long-name-variable", "z"}
	ids := make([]uint32, len(vars))
	for i, v := range vars {
		ids[i] = in.Intern(v)
		if want := uint32(i); ids[i] != want {
			t.Fatalf("Intern(%q) = %d, want dense first-seen id %d", v, ids[i], want)
		}
	}
	if in.Len() != len(vars) {
		t.Fatalf("Len = %d, want %d", in.Len(), len(vars))
	}
	for i, v := range vars {
		if again := in.Intern(v); again != ids[i] {
			t.Errorf("re-Intern(%q) = %d, want stable id %d", v, again, ids[i])
		}
		if got := in.Var(ids[i]); got != v {
			t.Errorf("Var(%d) = %q, want round-trip %q", ids[i], got, v)
		}
		if id, ok := in.Lookup(v); !ok || id != ids[i] {
			t.Errorf("Lookup(%q) = (%d, %v), want (%d, true)", v, id, ok, ids[i])
		}
	}
	if _, ok := in.Lookup("never-seen"); ok {
		t.Error("Lookup of an uninterned variable reported ok")
	}
}

// TestInternerUnknownIDPanics: a dense id is only meaningful relative
// to the interner that minted it; dereferencing a foreign id must fail
// loudly, not return a wrong variable.
func TestInternerUnknownIDPanics(t *testing.T) {
	in := NewInterner()
	in.Intern("x")
	defer func() {
		if recover() == nil {
			t.Fatal("Var(99) on a 1-variable interner did not panic")
		}
	}()
	in.Var(99)
}

// TestStateRoundTripIdentity is the dense→Var→dense identity property:
// for random states, FromState followed by toState reproduces the
// original state, and a second FromState of the round-tripped state is
// Equal to the first dense state.
func TestStateRoundTripIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		in := NewInterner()
		s := model.NewState()
		n := 1 + rng.Intn(80)
		for i := 0; i < n; i++ {
			v := model.Var(fmt.Sprintf("v%02d", rng.Intn(70)))
			in.Intern(v)
			if rng.Intn(3) > 0 { // leave some interned vars unassigned
				s.SetInt(v, rng.Int63n(1000))
			}
		}
		d := FromState(in, s)
		back := d.toState()
		// toState only sees interned variables; every assigned variable
		// here was interned, so the round trip must be exact.
		if !back.Equal(s) {
			t.Fatalf("trial %d: round-tripped state %v != original %v", trial, back, s)
		}
		d2 := FromState(in, back)
		if !d.Equal(d2) {
			t.Fatalf("trial %d: dense→Var→dense identity broken", trial)
		}
	}
}

// TestStatePresenceBitmap: Set maintains the presence bitmap under the
// same erase-on-zero rule as model.State, and StoreRaw+Mark restores
// it after a raw-write phase.
func TestStatePresenceBitmap(t *testing.T) {
	in := NewInterner()
	for i := 0; i < 70; i++ { // spans two bitmap words
		in.Intern(model.Var(fmt.Sprintf("v%02d", i)))
	}
	d := FromState(in, model.NewState())
	if d.present(3) || d.present(69) {
		t.Fatal("empty state reports variables present")
	}
	d.Set(69, model.IntVal(5))
	if !d.present(69) || d.Value(69) != model.IntVal(5) {
		t.Fatal("Set did not record value/presence")
	}
	d.Set(69, "")
	if d.present(69) {
		t.Fatal("assigning the zero Value did not clear presence")
	}

	d.StoreRaw(7, model.IntVal(1))
	if d.present(7) {
		t.Fatal("StoreRaw touched the presence bitmap")
	}
	d.Mark(7)
	if !d.present(7) {
		t.Fatal("Mark did not restore the presence bit")
	}
	d.StoreRaw(7, "")
	d.Mark(7)
	if d.present(7) {
		t.Fatal("Mark of a zero value did not clear the presence bit")
	}
}

// TestStateWriteBack: WriteBack installs exactly the named ids,
// including zero-value erasure, into a map-backed destination.
func TestStateWriteBack(t *testing.T) {
	in := NewInterner()
	x, y, z := in.Intern("x"), in.Intern("y"), in.Intern("z")
	d := FromState(in, model.NewState())
	d.Set(x, model.IntVal(1))
	d.Set(y, "")
	d.Set(z, model.IntVal(3))

	dst := model.StateOf(map[model.Var]model.Value{"y": model.IntVal(9), "w": model.IntVal(4)})
	d.WriteBack(dst, []uint32{x, y})
	want := model.StateOf(map[model.Var]model.Value{"x": model.IntVal(1), "w": model.IntVal(4)})
	if !dst.Equal(want) {
		t.Fatalf("after WriteBack: %v, want %v (z untouched, y erased, w preserved)", dst, want)
	}
}
