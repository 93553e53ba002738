package storage

import "testing"

func TestShadowStageDoesNotTouchStore(t *testing.T) {
	st := newStore()
	st.Write("p", "old", 1)
	sh := NewShadowTable(st)
	sh.StagePage("p", Page{Data: "new", LSN: 5})
	if got, _ := st.Read("p"); got.Data != "old" {
		t.Error("staging modified the current state")
	}
	if sh.staged() != 1 {
		t.Errorf("Staged = %d", sh.staged())
	}
}

func TestShadowSwing(t *testing.T) {
	st := newStore()
	st.Write("p", "old", 1)
	sh := NewShadowTable(st)
	sh.StagePage("p", Page{Data: "new", LSN: 5})
	sh.StagePage("q", Page{Data: "fresh", LSN: 6})
	sh.Swing()
	if got, _ := st.Read("p"); got.Data != "new" || got.LSN != 5 {
		t.Errorf("p = %+v", got)
	}
	if got, _ := st.Read("q"); got.Data != "fresh" {
		t.Errorf("q = %+v", got)
	}
	if sh.staged() != 0 || sh.Swings != 1 {
		t.Errorf("staged=%d swings=%d", sh.staged(), sh.Swings)
	}
	if st.GroupWrites != 1 {
		t.Errorf("GroupWrites = %d", st.GroupWrites)
	}
}

func TestShadowDiscard(t *testing.T) {
	st := newStore()
	sh := NewShadowTable(st)
	sh.StagePage("p", Page{Data: "new", LSN: 5})
	sh.Discard()
	sh.Swing()
	if _, ok := st.Read("p"); ok {
		t.Error("discarded page reached the store")
	}
}

// staged returns the number of pages waiting for the swing.
func (s *ShadowTable) staged() int { return len(s.staging) }
