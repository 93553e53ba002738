package cache

import (
	"testing"

	"redotheory/internal/model"
	"redotheory/internal/storage"
	"redotheory/internal/wal"
)

func newCache() (*Manager, *storage.Store, *wal.Manager) {
	st := storage.FromState(model.NewState())
	lg := wal.NewManager()
	return NewManager(st, lg), st, lg
}

func TestReadThroughAndWriteBack(t *testing.T) {
	c, st, lg := newCache()
	st.Write("p", "stable", 0)
	if c.Read("p") != "stable" {
		t.Error("read-through failed")
	}
	lg.Append(model.AssignConst(1, "p", "v1"), 8)
	c.ApplyWrite("p", "v1", 1)
	if c.Read("p") != "v1" {
		t.Error("cached value not returned")
	}
	if got, _ := st.Read("p"); got.Data != "stable" {
		t.Error("write leaked to stable before flush")
	}
	if err := c.Flush("p"); err != nil {
		t.Fatal(err)
	}
	if got, _ := st.Read("p"); got.Data != "v1" || got.LSN != 1 {
		t.Errorf("stable page = %+v", got)
	}
}

func TestFlushForcesWAL(t *testing.T) {
	c, _, lg := newCache()
	lg.Append(model.AssignConst(1, "p", "v1"), 8)
	c.ApplyWrite("p", "v1", 1)
	if lg.StableLSN() != 0 {
		t.Fatal("log unexpectedly stable")
	}
	if err := c.Flush("p"); err != nil {
		t.Fatal(err)
	}
	if lg.StableLSN() < 1 {
		t.Error("flush did not force the log (WAL violation)")
	}
}

func TestFlushWithoutWALEnforcement(t *testing.T) {
	c, st, lg := newCache()
	c.EnforceWAL = false
	lg.Append(model.AssignConst(1, "p", "v1"), 8)
	c.ApplyWrite("p", "v1", 1)
	if err := c.Flush("p"); err != nil {
		t.Fatal(err)
	}
	if lg.StableLSN() != 0 {
		t.Error("fault injection should not force the log")
	}
	if got, _ := st.Read("p"); got.Data != "v1" {
		t.Error("page not installed")
	}
}

func TestRecLSNAndCollapse(t *testing.T) {
	c, _, lg := newCache()
	lg.Append(model.AssignConst(1, "p", "a"), 1)
	c.ApplyWrite("p", "a", 1)
	lg.Append(model.AssignConst(2, "p", "b"), 1)
	c.ApplyWrite("p", "b", 2) // collapse: one cache copy, two ops
	if c.PageLSN("p") != 2 {
		t.Errorf("pageLSN = %d", c.PageLSN("p"))
	}
	min, ok := c.MinRecLSN()
	if !ok || min != 1 {
		t.Errorf("MinRecLSN = %d,%v, want 1", min, ok)
	}
	if err := c.Flush("p"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.MinRecLSN(); ok {
		t.Error("clean cache reports a recLSN")
	}
	// Re-dirtying resets recLSN to the new first update.
	lg.Append(model.AssignConst(3, "p", "c"), 1)
	c.ApplyWrite("p", "c", 3)
	if min, _ := c.MinRecLSN(); min != 3 {
		t.Errorf("recLSN after re-dirty = %d, want 3", min)
	}
}

func TestFlushDependencyOrdering(t *testing.T) {
	// Figure 8 shape: new page y (LSN 1) must reach stable storage before
	// old page x may be overwritten at LSN 2.
	c, st, lg := newCache()
	lg.Append(model.AssignConst(1, "y", "newpage"), 1)
	c.ApplyWrite("y", "newpage", 1)
	lg.Append(model.AssignConst(2, "x", "truncated"), 1)
	c.ApplyWrite("x", "truncated", 2)
	c.AddDep(Dep{Prereq: "y", PrereqLSN: 1, Dependent: "x", DepLSN: 2})

	if c.canFlush("x") {
		t.Error("x flushable before y is stable")
	}
	if err := c.Flush("x"); err == nil {
		t.Fatal("dependency-violating flush accepted")
	}
	if got, _ := st.Read("x"); got.Data != "" {
		t.Error("blocked flush reached stable storage")
	}
	if err := c.Flush("y"); err != nil {
		t.Fatal(err)
	}
	if !c.canFlush("x") {
		t.Error("x still blocked after y is stable")
	}
	if err := c.Flush("x"); err != nil {
		t.Fatal(err)
	}
}

func TestFlushAllRespectsDeps(t *testing.T) {
	c, st, lg := newCache()
	lg.Append(model.AssignConst(1, "y", "n"), 1)
	c.ApplyWrite("y", "n", 1)
	lg.Append(model.AssignConst(2, "x", "t"), 1)
	c.ApplyWrite("x", "t", 2)
	c.AddDep(Dep{Prereq: "y", PrereqLSN: 1, Dependent: "x", DepLSN: 2})
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if st.PageLSN("x") != 2 || st.PageLSN("y") != 1 {
		t.Error("FlushAll missed a page")
	}
	if len(c.DirtyPages()) != 0 {
		t.Error("dirty pages remain")
	}
}

func TestFlushAllDetectsCycle(t *testing.T) {
	c, _, lg := newCache()
	lg.Append(model.AssignConst(1, "a", "1"), 1)
	c.ApplyWrite("a", "1", 1)
	lg.Append(model.AssignConst(2, "b", "2"), 1)
	c.ApplyWrite("b", "2", 2)
	c.AddDep(Dep{Prereq: "a", PrereqLSN: 1, Dependent: "b", DepLSN: 2})
	c.AddDep(Dep{Prereq: "b", PrereqLSN: 2, Dependent: "a", DepLSN: 1})
	if err := c.FlushAll(); err == nil {
		t.Error("cyclic dependencies not detected")
	}
}

func TestCrashDropsCache(t *testing.T) {
	c, st, lg := newCache()
	st.Write("p", "stable", 0)
	lg.Append(model.AssignConst(1, "p", "dirty"), 1)
	c.ApplyWrite("p", "dirty", 1)
	c.Crash()
	if c.Read("p") != "stable" {
		t.Error("crash kept a dirty page")
	}
	if len(c.DirtyPages()) != 0 {
		t.Error("dirty list survived crash")
	}
}

func TestFlushCleanPageFails(t *testing.T) {
	c, _, _ := newCache()
	if err := c.Flush("nope"); err == nil {
		t.Error("flushed a page that is not dirty")
	}
}

func TestDepPastLSNDoesNotBlockEarlierFlush(t *testing.T) {
	// A dependency at DepLSN 5 must not block flushing the page while it
	// carries only LSN 3.
	c, _, lg := newCache()
	lg.Append(model.AssignConst(1, "x", "v3"), 1)
	c.ApplyWrite("x", "v3", 1)
	c.AddDep(Dep{Prereq: "y", PrereqLSN: 4, Dependent: "x", DepLSN: 5})
	if !c.canFlush("x") {
		t.Error("dependency for a later LSN blocked an earlier flush")
	}
}
