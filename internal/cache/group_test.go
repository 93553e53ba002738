package cache

import (
	"testing"

	"redotheory/internal/core"
	"redotheory/internal/model"
)

func TestFlushGroupAtomicInstall(t *testing.T) {
	c, st, lg := newCache()
	lg.Append(model.ReadWrite(1, "pair", nil, []model.Var{"a", "b"}), 1)
	c.ApplyWrite("a", "1", 1)
	c.ApplyWrite("b", "2", 1)
	if err := c.FlushGroup([]model.Var{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if st.PageLSN("a") != 1 || st.PageLSN("b") != 1 {
		t.Error("group not installed")
	}
	if st.GroupWrites != 1 {
		t.Errorf("GroupWrites = %d", st.GroupWrites)
	}
	if len(c.DirtyPages()) != 0 {
		t.Error("members still dirty")
	}
	if lg.StableLSN() < 1 {
		t.Error("WAL not forced before the group")
	}
}

func TestFlushGroupRejectsCleanMember(t *testing.T) {
	c, _, lg := newCache()
	lg.Append(model.AssignConst(1, "a", "1"), 1)
	c.ApplyWrite("a", "1", 1)
	if err := c.FlushGroup([]model.Var{"a", "zzz"}); err == nil {
		t.Error("group with clean member accepted")
	}
	// The failed attempt must not have installed anything.
	if len(c.DirtyPages()) != 1 {
		t.Error("partial group effects visible")
	}
}

func TestFlushGroupInternalDepsSatisfiedByAtomicity(t *testing.T) {
	c, st, lg := newCache()
	lg.Append(model.AssignConst(1, "a", "1"), 1)
	c.ApplyWrite("a", "1", 1)
	lg.Append(model.AssignConst(2, "b", "2"), 1)
	c.ApplyWrite("b", "2", 2)
	// Crosswise deps: unsatisfiable page-at-a-time.
	c.AddDep(Dep{Prereq: "a", PrereqLSN: 1, Dependent: "b", DepLSN: 2})
	c.AddDep(Dep{Prereq: "b", PrereqLSN: 2, Dependent: "a", DepLSN: 1})
	if err := c.FlushAll(); err == nil {
		t.Fatal("page-at-a-time drain should deadlock")
	}
	if err := c.FlushGroup([]model.Var{"a", "b"}); err != nil {
		t.Fatalf("atomic group should dissolve internal deps: %v", err)
	}
	if st.PageLSN("a") != 1 || st.PageLSN("b") != 2 {
		t.Error("group not installed")
	}
}

func TestFlushGroupExternalDepBlocks(t *testing.T) {
	c, _, lg := newCache()
	lg.Append(model.AssignConst(1, "a", "1"), 1)
	c.ApplyWrite("a", "1", 1)
	// a depends on external page x, which is not stable.
	c.AddDep(Dep{Prereq: "x", PrereqLSN: 5, Dependent: "a", DepLSN: 1})
	if err := c.FlushGroup([]model.Var{"a"}); err == nil {
		t.Error("external unsatisfied prerequisite accepted")
	}
}

func TestOpsSinceTracking(t *testing.T) {
	c, _, lg := newCache()
	if c.OpsSince("p") != nil {
		t.Error("clean page reports ops")
	}
	lg.Append(model.AssignConst(1, "p", "1"), 1)
	c.ApplyWrite("p", "1", 1)
	lg.Append(model.AssignConst(2, "p", "2"), 1)
	c.ApplyWrite("p", "2", 2)
	if got := c.OpsSince("p"); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("OpsSince = %v", got)
	}
	if err := c.Flush("p"); err != nil {
		t.Fatal(err)
	}
	if c.OpsSince("p") != nil {
		t.Error("ops survived the flush")
	}
}

func TestOnInstallHookFires(t *testing.T) {
	c, _, lg := newCache()
	var got []core.LSN
	c.OnInstall = func(x model.Var, lsn core.LSN) { got = append(got, lsn) }
	lg.Append(model.AssignConst(1, "p", "1"), 1)
	c.ApplyWrite("p", "1", 1)
	if err := c.Flush("p"); err != nil {
		t.Fatal(err)
	}
	lg.Append(model.ReadWrite(2, "pair", nil, []model.Var{"q", "r"}), 1)
	c.ApplyWrite("q", "2", 2)
	c.ApplyWrite("r", "3", 2)
	if err := c.FlushGroup([]model.Var{"q", "r"}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Errorf("hook fired %d times, want 3", len(got))
	}
}

func TestMVFlushBestFiresHookWithVersionLSN(t *testing.T) {
	c, _, lg := newMV()
	var got []core.LSN
	c.OnInstall = func(x model.Var, lsn core.LSN) { got = append(got, lsn) }
	lg.Append(model.AssignConst(1, "p", "v1"), 1)
	c.ApplyWrite("p", "v1", 1)
	lg.Append(model.AssignConst(2, "p", "v2"), 1)
	c.ApplyWrite("p", "v2", 2)
	c.AddDep(Dep{Prereq: "q", PrereqLSN: 9, Dependent: "p", DepLSN: 2})
	if err := c.flushBest("p"); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("hook = %v, want the older version's LSN 1", got)
	}
	// The newer version's op remains tracked.
	if ops := c.OpsSince("p"); len(ops) != 1 || ops[0] != 2 {
		t.Errorf("OpsSince after partial flush = %v", ops)
	}
}
