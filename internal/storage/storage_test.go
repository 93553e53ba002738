package storage

import (
	"testing"

	"redotheory/internal/model"
)

func TestReadWrite(t *testing.T) {
	s := newStore()
	if _, ok := s.Read("p1"); ok {
		t.Error("missing page reported present")
	}
	if s.PageLSN("p1") != 0 {
		t.Error("missing page LSN not 0")
	}
	s.Write("p1", "hello", 7)
	p, ok := s.Read("p1")
	if !ok || p.Data != "hello" || p.LSN != 7 {
		t.Errorf("page = %+v", p)
	}
	if s.PageWrites != 1 {
		t.Errorf("PageWrites = %d", s.PageWrites)
	}
}

func TestFromStateAndState(t *testing.T) {
	st := model.StateOf(map[model.Var]model.Value{"a": "1", "b": "2"})
	s := FromState(st)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if !s.State().Equal(st) {
		t.Error("State() round trip failed")
	}
	if s.PageLSN("a") != 0 {
		t.Error("initial pages must have LSN 0")
	}
}

func TestWriteGroupAtomic(t *testing.T) {
	s := newStore()
	err := s.WriteGroup(map[model.Var]Page{
		"a": {Data: "1", LSN: 1},
		"b": {Data: "2", LSN: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.GroupWrites != 1 || s.PageWrites != 2 {
		t.Errorf("counters = %d group, %d page", s.GroupWrites, s.PageWrites)
	}
	if p, _ := s.Read("b"); p.Data != "2" {
		t.Error("group write lost a page")
	}
}

func TestWriteGroupTearing(t *testing.T) {
	s := newStore()
	s.tearNextGroup(1)
	err := s.WriteGroup(map[model.Var]Page{
		"a": {Data: "1", LSN: 1},
		"b": {Data: "2", LSN: 2},
	})
	if err == nil {
		t.Fatal("torn group reported success")
	}
	// Pages apply in sorted order, so exactly "a" landed.
	if _, ok := s.Read("a"); !ok {
		t.Error("prefix page missing")
	}
	if _, ok := s.Read("b"); ok {
		t.Error("page past the tear applied")
	}
	// Tearing is one-shot.
	if err := s.WriteGroup(map[model.Var]Page{"b": {Data: "2", LSN: 2}}); err != nil {
		t.Errorf("second group failed: %v", err)
	}
}

func TestLSNs(t *testing.T) {
	s := newStore()
	s.Write("a", "1", 3)
	s.Write("b", "2", 0)
	lsns := s.LSNs()
	if len(lsns) != 1 || lsns["a"] != 3 {
		t.Errorf("LSNs = %v", lsns)
	}
}

func TestClone(t *testing.T) {
	s := newStore()
	s.Write("a", "1", 1)
	c := s.Clone()
	c.Write("a", "2", 2)
	if p, _ := s.Read("a"); p.Data != "1" {
		t.Error("clone not independent")
	}
}
