package cache

import (
	"fmt"
	"testing"

	"redotheory/internal/model"
	"redotheory/internal/storage"
	"redotheory/internal/wal"
)

func newMV() (*Manager, *storage.Store, *wal.Manager) {
	st := storage.FromState(model.NewState())
	lg := wal.NewManager()
	return NewMVManager(st, lg), st, lg
}

func TestMVRetainsVersions(t *testing.T) {
	c, _, lg := newMV()
	lg.Append(model.AssignConst(1, "p", "v1"), 1)
	c.ApplyWrite("p", "v1", 1)
	lg.Append(model.AssignConst(2, "p", "v2"), 1)
	c.ApplyWrite("p", "v2", 2)
	lg.Append(model.AssignConst(3, "p", "v3"), 1)
	c.ApplyWrite("p", "v3", 3)
	if got := c.versions("p"); got != 3 {
		t.Errorf("Versions = %d, want 3", got)
	}
	if c.Read("p") != "v3" {
		t.Error("Read must return the newest version")
	}
}

func TestMVFlushBestPrefersNewest(t *testing.T) {
	c, st, lg := newMV()
	lg.Append(model.AssignConst(1, "p", "v1"), 1)
	c.ApplyWrite("p", "v1", 1)
	lg.Append(model.AssignConst(2, "p", "v2"), 1)
	c.ApplyWrite("p", "v2", 2)
	if err := c.flushBest("p"); err != nil {
		t.Fatal(err)
	}
	if got, _ := st.Read("p"); got.Data != "v2" || got.LSN != 2 {
		t.Errorf("stable = %+v, want newest", got)
	}
	if c.versions("p") != 0 {
		t.Error("page should be clean after flushing the newest version")
	}
}

func TestMVFlushBestFallsBackToOlderVersion(t *testing.T) {
	c, st, lg := newMV()
	lg.Append(model.AssignConst(1, "p", "v1"), 1)
	c.ApplyWrite("p", "v1", 1)
	lg.Append(model.AssignConst(2, "p", "v2"), 1)
	c.ApplyWrite("p", "v2", 2)
	// Block the newest version: p at LSN ≥ 2 needs q stable at 9.
	c.AddDep(Dep{Prereq: "q", PrereqLSN: 9, Dependent: "p", DepLSN: 2})
	if !c.canFlushBest("p") {
		t.Fatal("older version should be installable")
	}
	if err := c.flushBest("p"); err != nil {
		t.Fatal(err)
	}
	if got, _ := st.Read("p"); got.Data != "v1" || got.LSN != 1 {
		t.Errorf("stable = %+v, want the older version", got)
	}
	if c.versions("p") != 1 {
		t.Errorf("Versions = %d, want the newer one retained", c.versions("p"))
	}
	if min, ok := c.MinRecLSN(); !ok || min != 2 {
		t.Errorf("recLSN = %d,%v, want 2 (the unflushed version)", min, ok)
	}
}

func TestMVBreaksDependencyCycle(t *testing.T) {
	// Crosswise dependencies over the newest versions: single-copy
	// FlushAll deadlocks, version-at-a-time drains.
	c, st, lg := newMV()
	lg.Append(model.AssignConst(1, "w", "w1"), 1)
	c.ApplyWrite("w", "w1", 1)
	lg.Append(model.AssignConst(2, "r", "r2"), 1)
	c.ApplyWrite("r", "r2", 2)
	lg.Append(model.AssignConst(3, "w", "w3"), 1)
	c.ApplyWrite("w", "w3", 3)
	// r@2 needs w stable ≥ 1; w@3 needs r stable ≥ 2.
	c.AddDep(Dep{Prereq: "w", PrereqLSN: 1, Dependent: "r", DepLSN: 2})
	c.AddDep(Dep{Prereq: "r", PrereqLSN: 2, Dependent: "w", DepLSN: 3})
	if err := c.FlushAll(); err == nil {
		t.Fatal("single-copy FlushAll should deadlock on the newest versions")
	}
	if err := c.flushAllBest(); err != nil {
		t.Fatalf("version-at-a-time drain failed: %v", err)
	}
	if got, _ := st.Read("w"); got.LSN != 3 {
		t.Errorf("w ended at LSN %d, want 3", got.LSN)
	}
	if got, _ := st.Read("r"); got.LSN != 2 {
		t.Errorf("r ended at LSN %d, want 2", got.LSN)
	}
}

func TestMVSingleVersionModeUnchanged(t *testing.T) {
	// In a plain manager, flushBest behaves exactly like Flush.
	st := storage.FromState(model.NewState())
	lg := wal.NewManager()
	c := NewManager(st, lg)
	lg.Append(model.AssignConst(1, "p", "v1"), 1)
	c.ApplyWrite("p", "v1", 1)
	lg.Append(model.AssignConst(2, "p", "v2"), 1)
	c.ApplyWrite("p", "v2", 2)
	if c.versions("p") != 1 {
		t.Error("single-version manager retained history")
	}
	if err := c.flushBest("p"); err != nil {
		t.Fatal(err)
	}
	if got, _ := st.Read("p"); got.Data != "v2" {
		t.Error("flushBest flushed the wrong version")
	}
}

func TestMVCrashDropsVersions(t *testing.T) {
	c, _, lg := newMV()
	lg.Append(model.AssignConst(1, "p", "v1"), 1)
	c.ApplyWrite("p", "v1", 1)
	lg.Append(model.AssignConst(2, "p", "v2"), 1)
	c.ApplyWrite("p", "v2", 2)
	c.Crash()
	if c.versions("p") != 0 {
		t.Error("versions survived the crash")
	}
}

// versions returns how many unflushed versions of the page the cache
// holds (0 when clean or absent).
func (m *Manager) versions(id model.Var) int {
	p, ok := m.pages[id]
	if !ok || !p.dirty {
		return 0
	}
	return len(p.older) + 1
}

// flushAllBest drains the cache version-at-a-time, iterating to a fixed
// point. Unlike FlushAll it succeeds even when the newest versions form
// a dependency cycle, as long as older versions break it.
func (m *Manager) flushAllBest() error {
	for {
		progressed := false
		for _, id := range m.DirtyPages() {
			if m.canFlushBest(id) {
				if err := m.flushBest(id); err != nil {
					return err
				}
				progressed = true
			}
		}
		if len(m.dirty) == 0 {
			return nil
		}
		if !progressed {
			return fmt.Errorf("cache: %d dirty pages blocked even version-at-a-time", len(m.dirty))
		}
	}
}
