package storage

import (
	"fmt"
	"strings"
	"testing"

	"redotheory/internal/fault"
	"redotheory/internal/model"
)

func TestArmedFaultQueryAndDisarm(t *testing.T) {
	s := newStore()
	if _, armed := s.armedFault(); armed {
		t.Fatal("fresh store reports an armed fault")
	}
	s.tearNextGroup(1)
	if desc, armed := s.armedFault(); !armed || !strings.Contains(desc, "tear-next-group") {
		t.Fatalf("armedFault after tearNextGroup = %q, %v", desc, armed)
	}
	s.DisarmFaults()
	if _, armed := s.armedFault(); armed {
		t.Fatal("fault still armed after DisarmFaults")
	}
	// Disarmed: the next group must apply cleanly.
	if err := s.WriteGroup(map[model.Var]Page{
		"a": {Data: "1", LSN: 1},
		"b": {Data: "2", LSN: 2},
	}); err != nil {
		t.Fatalf("disarmed group write failed: %v", err)
	}

	s.SetInjector(fault.Plan{Seed: 1, Kind: fault.LostWrite}.New())
	if desc, armed := s.armedFault(); !armed || desc != string(fault.LostWrite) {
		t.Fatalf("armedFault with injector = %q, %v", desc, armed)
	}
	s.DisarmFaults()
	if _, armed := s.armedFault(); armed {
		t.Fatal("injector still armed after DisarmFaults")
	}
}

func TestDoubleArmThenNormalWrite(t *testing.T) {
	s := newStore()
	// Double-arm: the second arm wins (last writer), still one-shot.
	s.tearNextGroup(0)
	s.tearNextGroup(1)
	err := s.WriteGroup(map[model.Var]Page{
		"a": {Data: "1", LSN: 1},
		"b": {Data: "2", LSN: 2},
	})
	if !IsTorn(err) {
		t.Fatalf("double-armed group did not tear: %v", err)
	}
	if _, ok := s.Read("a"); !ok {
		t.Error("tear kept 1 page but prefix page missing")
	}
	if _, ok := s.Read("b"); ok {
		t.Error("page past the tear applied")
	}
	// One-shot: arm consumed, plain single-page writes unaffected.
	if _, armed := s.armedFault(); armed {
		t.Fatal("tear still armed after firing")
	}
	s.Write("c", "3", 3)
	if p, _ := s.Read("c"); p.Data != "3" {
		t.Error("normal write after tear failed")
	}
	if err := s.WriteGroup(map[model.Var]Page{"b": {Data: "2", LSN: 2}}); err != nil {
		t.Fatalf("group write after consumed tear failed: %v", err)
	}
}

func TestChecksumSealAndVerify(t *testing.T) {
	s := FromState(model.StateOf(map[model.Var]model.Value{"a": "1"}))
	s.Write("b", "2", 5)
	if err := s.WriteGroup(map[model.Var]Page{"c": {Data: "3", LSN: 6}}); err != nil {
		t.Fatal(err)
	}
	if bad := s.VerifyAll(); len(bad) != 0 {
		t.Fatalf("clean store verifies corrupt: %v", bad)
	}
	if err := s.verifyPage("missing"); err != nil {
		t.Fatalf("missing page reported corrupt: %v", err)
	}
	if !s.CorruptPage("b") {
		t.Fatal("CorruptPage on present page returned false")
	}
	if err := s.verifyPage("b"); err == nil {
		t.Fatal("bit-rotted page passed verification")
	} else if _, ok := err.(*CorruptPageError); !ok {
		t.Fatalf("wrong error type: %T", err)
	}
	if bad := s.VerifyAll(); len(bad) != 1 || bad[0] != "b" {
		t.Fatalf("VerifyAll = %v, want [b]", bad)
	}
	if s.CorruptPage("missing") {
		t.Fatal("CorruptPage on missing page returned true")
	}
}

func TestLostWriteRealization(t *testing.T) {
	s := newStore()
	// loseAt draws from [0,6); with seed 1 find the dead page by writing.
	s.SetInjector(fault.Plan{Seed: 1, Kind: fault.LostWrite}.New())
	for i := 0; i < 8; i++ {
		s.Write("p", model.Value(strings.Repeat("x", i+1)), 0)
	}
	s.Write("p", "final", 9)
	s.Write("q", "safe", 10)
	// Pre-crash, the illusion holds: reads see the latest write.
	if p, _ := s.Read("p"); p.Data != "final" {
		t.Fatalf("pre-crash read = %q, want the illusion of success", p.Data)
	}
	reverted := s.RealizeCrashFaults()
	if len(reverted) != 1 || reverted[0] != "p" {
		t.Fatalf("reverted = %v, want [p]", reverted)
	}
	p, _ := s.Read("p")
	if p.Data == "final" {
		t.Fatal("lost write survived the crash")
	}
	// The stale version is checksum-valid: lost writes are NOT detectable
	// by page checksums, only by LSN reasoning.
	if err := s.verifyPage("p"); err != nil {
		t.Fatalf("stale page should be checksum-valid: %v", err)
	}
	if q, _ := s.Read("q"); q.Data != "safe" {
		t.Fatal("unrelated page affected by realization")
	}
	// Realization is one-shot and detaches the injector.
	if got := s.RealizeCrashFaults(); len(got) != 0 {
		t.Fatalf("second realization reverted %v", got)
	}
	if _, armed := s.armedFault(); armed {
		t.Fatal("injector still attached after realization")
	}
}

func TestGroupIntentJournal(t *testing.T) {
	s := newStore()
	if s.PendingGroupIntent() != nil {
		t.Fatal("fresh store has a pending intent")
	}
	if err := s.WriteGroup(map[model.Var]Page{"a": {Data: "1", LSN: 1}}); err != nil {
		t.Fatal(err)
	}
	if s.PendingGroupIntent() != nil {
		t.Fatal("completed group left its intent pending")
	}
	s.tearNextGroup(1)
	err := s.WriteGroup(map[model.Var]Page{
		"a": {Data: "1", LSN: 2},
		"b": {Data: "2", LSN: 2},
	})
	if !IsTorn(err) {
		t.Fatalf("expected torn group, got %v", err)
	}
	intent := s.PendingGroupIntent()
	if len(intent) != 2 || intent[0] != "a" || intent[1] != "b" {
		t.Fatalf("pending intent = %v, want [a b]", intent)
	}
	s.ClearGroupIntent()
	if s.PendingGroupIntent() != nil {
		t.Fatal("intent survived ClearGroupIntent")
	}
}

func TestInjectorTearsSwing(t *testing.T) {
	st := newStore()
	sh := NewShadowTable(st)
	sh.StagePage("a", Page{Data: "1", LSN: 1})
	sh.StagePage("b", Page{Data: "2", LSN: 1})
	st.SetInjector(fault.Plan{Seed: 42, Kind: fault.TornGroup}.New())
	err := sh.Swing()
	if !IsTorn(err) {
		t.Fatalf("armed torn-group injector did not tear the swing: %v", err)
	}
	if sh.staged() != 2 {
		t.Fatal("staging cleared despite torn swing")
	}
	if st.PendingGroupIntent() == nil {
		t.Fatal("torn swing left no pending intent")
	}
	// The injector tears only one group; retrying the swing succeeds.
	if err := sh.Swing(); err != nil {
		t.Fatalf("retried swing failed: %v", err)
	}
	if sh.staged() != 0 || st.PendingGroupIntent() != nil {
		t.Fatal("successful retry did not settle staging/intent")
	}
}

// tearNextGroup arms fault injection: the next WriteGroup applies only n
// pages and then fails, leaving the group half-written.
func (s *Store) tearNextGroup(n int) { s.tearAfter = n }

// armedFault describes the fault currently armed against the store, if
// any: a pending tearNextGroup or an attached injector's kind.
func (s *Store) armedFault() (string, bool) {
	if s.tearAfter >= 0 {
		return fmt.Sprintf("tear-next-group(keep %d)", s.tearAfter), true
	}
	if s.inj != nil && s.inj.Kind() != fault.None {
		return string(s.inj.Kind()), true
	}
	return "", false
}
