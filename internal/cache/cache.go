// Package cache is the cache manager: the volatile page cache that
// accumulates the effects of multiple operations per page (the write
// graph's Collapse, Section 5.1) and installs them into stable storage by
// flushing pages. Two rules make flushing safe:
//
//   - the WAL gate: a page flush forces the log through the page's LSN
//     first (Section 7);
//   - flush-order dependencies: Section 6.4's "careful write" ordering.
//     A dependency says page B (at or past some LSN) may not be flushed
//     until page A carries at least some LSN in stable storage — the
//     cache-manager form of a write graph edge, e.g. a B-tree split's new
//     page before the old page's truncation.
//
// A crash discards the cache; only flushed pages and the stable log
// survive.
package cache

import (
	"fmt"
	"slices"

	"redotheory/internal/core"
	"redotheory/internal/graph"
	"redotheory/internal/model"
	"redotheory/internal/obs"
	"redotheory/internal/storage"
	"redotheory/internal/wal"
)

// page is a cached page.
type page struct {
	data model.Value
	// pageLSN is the LSN of the last operation that updated the page.
	pageLSN core.LSN
	// recLSN is the LSN of the first operation whose effects on the page
	// are not yet stable — the fuzzy-checkpoint scan bound.
	recLSN core.LSN
	dirty  bool
	// older retains previous unflushed versions (ascending LSN) in
	// multi-version mode; see mv.go.
	older []pageVersion
	// opsSince lists the LSNs of the operations that updated the page
	// since it was last clean — the group-flush closure walks these.
	opsSince []core.LSN
}

// Dep is a flush-order dependency: before the dependent page may be
// flushed while carrying an LSN ≥ DepLSN, the prerequisite page's stable
// LSN must have reached PrereqLSN.
type Dep struct {
	Prereq    model.Var
	PrereqLSN core.LSN
	Dependent model.Var
	DepLSN    core.LSN
}

// Manager is the cache manager.
type Manager struct {
	store *storage.Store
	log   *wal.Manager
	pages map[model.Var]*page
	// dirty holds the ids of the dirty pages in ascending order, kept in
	// step with page.dirty by markDirty and markClean, so the flush
	// choice ("smallest dirty id that can flush") and DirtyPages never
	// scan or sort the page map.
	dirty []model.Var
	deps  []Dep
	// EnforceWAL can be cleared by fault injection to demonstrate what
	// breaks without the write-ahead rule.
	EnforceWAL bool
	// Flushes counts page installs.
	Flushes int
	// multiVersion retains older page versions; see NewMVManager.
	multiVersion bool
	// OnInstall, when set, is invoked after every page install with the
	// page and the LSN it was installed at — the online auditor's feed.
	OnInstall func(model.Var, core.LSN)
	// rec is the attached telemetry recorder (nil = disabled): installs
	// are counted and emitted as flush/steal events.
	rec *obs.Recorder
}

// NewManager returns a cache over the given store and log manager.
func NewManager(store *storage.Store, log *wal.Manager) *Manager {
	return &Manager{
		store:      store,
		log:        log,
		pages:      make(map[model.Var]*page),
		EnforceWAL: true,
	}
}

// SetRecorder attaches a telemetry recorder. Pass nil to disable.
func (m *Manager) SetRecorder(rec *obs.Recorder) { m.rec = rec }

// Read returns the current (volatile) value of a page: the cached copy if
// present, else the stable copy.
func (m *Manager) Read(id model.Var) model.Value {
	if p, ok := m.pages[id]; ok {
		return p.data
	}
	p, _ := m.store.Read(id)
	return p.Data
}

// PageLSN returns the volatile LSN tag of a page.
func (m *Manager) PageLSN(id model.Var) core.LSN {
	if p, ok := m.pages[id]; ok {
		return p.pageLSN
	}
	return m.store.PageLSN(id)
}

// ApplyWrite records an operation's write to a page in the cache,
// collapsing it with whatever updates the page already carries — or, in
// multi-version mode, retaining the previous version alongside.
func (m *Manager) ApplyWrite(id model.Var, data model.Value, lsn core.LSN) {
	p, ok := m.pages[id]
	if !ok {
		p = &page{}
		m.pages[id] = p
	}
	if m.multiVersion && p.dirty {
		p.older = append(p.older, pageVersion{data: p.data, lsn: p.pageLSN})
	}
	p.data = data
	p.pageLSN = lsn
	p.opsSince = append(p.opsSince, lsn)
	if !p.dirty {
		m.markDirty(id, p)
		p.recLSN = lsn
	}
}

// markDirty flips a clean page dirty and files it in the ordered set.
func (m *Manager) markDirty(id model.Var, p *page) {
	p.dirty = true
	k, _ := slices.BinarySearch(m.dirty, id)
	m.dirty = slices.Insert(m.dirty, k, id)
}

// markClean is what a full install leaves behind: the page clean, its
// retained versions and update list dropped, its id out of the ordered
// set.
func (m *Manager) markClean(id model.Var, p *page) {
	p.dirty = false
	p.older = nil
	p.opsSince = nil
	k, _ := slices.BinarySearch(m.dirty, id)
	m.dirty = slices.Delete(m.dirty, k, k+1)
}

// OpsSince returns the LSNs of the operations that updated the page
// since it was last clean. The slice is shared; callers must not modify
// it.
func (m *Manager) OpsSince(id model.Var) []core.LSN {
	if p, ok := m.pages[id]; ok && p.dirty {
		return p.opsSince
	}
	return nil
}

// AddDep records a flush-order dependency (a write graph edge).
func (m *Manager) AddDep(d Dep) { m.deps = append(m.deps, d) }

// blockedBy returns the first unsatisfied dependency blocking a flush of
// the page at its current volatile LSN, if any.
func (m *Manager) blockedBy(id model.Var, lsn core.LSN) (Dep, bool) {
	for _, d := range m.deps {
		if d.Dependent != id || lsn < d.DepLSN {
			continue
		}
		if m.store.PageLSN(d.Prereq) < d.PrereqLSN {
			return d, true
		}
	}
	return Dep{}, false
}

// canFlush reports whether the page is dirty and unblocked.
func (m *Manager) canFlush(id model.Var) bool {
	p, ok := m.pages[id]
	if !ok || !p.dirty {
		return false
	}
	_, blocked := m.blockedBy(id, p.pageLSN)
	return !blocked
}

// Flush installs one page into stable storage: it checks flush-order
// dependencies, forces the log through the page LSN (WAL), writes the
// page atomically with its LSN tag, and marks the cache copy clean.
func (m *Manager) Flush(id model.Var) error {
	p, ok := m.pages[id]
	if !ok || !p.dirty {
		return fmt.Errorf("cache: page %q is not dirty", id)
	}
	if d, blocked := m.blockedBy(id, p.pageLSN); blocked {
		return fmt.Errorf("cache: flush of %q (LSN %d) blocked: %q must first reach stable LSN %d (careful write order)",
			id, p.pageLSN, d.Prereq, d.PrereqLSN)
	}
	if m.EnforceWAL {
		m.log.FlushTo(p.pageLSN)
	} else if err := m.log.RequireStable(p.pageLSN); err != nil {
		// Fault injection: WAL disabled — install anyway, recording the
		// violation by proceeding. The simulator uses this to produce
		// invariant violations on purpose.
		_ = err
	}
	m.store.Write(id, p.data, p.pageLSN)
	m.markClean(id, p)
	m.Flushes++
	m.rec.Inc(obs.MCacheFlushes)
	m.rec.Emit(obs.Event{Type: obs.EvCacheFlush, Page: string(id), LSN: int64(p.pageLSN)})
	if m.OnInstall != nil {
		m.OnInstall(id, p.pageLSN)
	}
	m.pruneDeps()
	return nil
}

// FlushGroup installs a set of dirty pages in one atomic multi-page
// write (Section 5's atomic multi-variable installation). Dependencies
// whose prerequisite lies inside the group are satisfied by the
// atomicity itself; prerequisites outside the group must already be
// stable. The log is forced through the group's highest LSN first.
func (m *Manager) FlushGroup(ids []model.Var) error {
	group := graph.NewSet(ids...)
	var maxLSN core.LSN
	for _, id := range ids {
		p, ok := m.pages[id]
		if !ok || !p.dirty {
			return fmt.Errorf("cache: group member %q is not dirty", id)
		}
		if p.pageLSN > maxLSN {
			maxLSN = p.pageLSN
		}
		for _, d := range m.deps {
			if d.Dependent != id || p.pageLSN < d.DepLSN || group.Has(d.Prereq) {
				continue
			}
			if m.store.PageLSN(d.Prereq) < d.PrereqLSN {
				return fmt.Errorf("cache: group flush of %v blocked: external prerequisite %q must first reach stable LSN %d", ids, d.Prereq, d.PrereqLSN)
			}
		}
	}
	if m.EnforceWAL {
		m.log.FlushTo(maxLSN)
	}
	pages := make(map[model.Var]storage.Page, len(ids))
	for _, id := range ids {
		p := m.pages[id]
		pages[id] = storage.Page{Data: p.data, LSN: p.pageLSN}
	}
	if err := m.store.WriteGroup(pages); err != nil {
		return fmt.Errorf("cache: group flush: %w", err)
	}
	m.rec.Inc(obs.MCacheGroups)
	for _, id := range ids {
		p := m.pages[id]
		m.markClean(id, p)
		m.Flushes++
		m.rec.Inc(obs.MCacheFlushes)
		m.rec.Emit(obs.Event{Type: obs.EvCacheFlush, Page: string(id), LSN: int64(p.pageLSN)})
		if m.OnInstall != nil {
			m.OnInstall(id, p.pageLSN)
		}
	}
	m.pruneDeps()
	return nil
}

// pruneDeps drops dependencies whose prerequisite is satisfied in stable
// storage.
func (m *Manager) pruneDeps() {
	kept := m.deps[:0]
	for _, d := range m.deps {
		if m.store.PageLSN(d.Prereq) < d.PrereqLSN {
			kept = append(kept, d)
		}
	}
	m.deps = kept
}

// FlushAll flushes every dirty page, honoring dependencies by iterating
// until a fixed point; it returns an error if blocked pages remain (a
// dependency cycle, which the write graph's acyclicity precludes for
// well-formed histories).
func (m *Manager) FlushAll() error {
	for {
		progressed := false
		for _, id := range m.DirtyPages() {
			if m.canFlush(id) {
				if err := m.Flush(id); err != nil {
					return err
				}
				progressed = true
			}
		}
		if len(m.dirty) == 0 {
			return nil
		}
		if !progressed {
			return fmt.Errorf("cache: %d dirty pages permanently blocked: flush dependencies form a cycle", len(m.dirty))
		}
	}
}

// FlushFirst installs the first dirty page, in id order, whose
// dependencies allow it — the background writer's choice — and reports
// whether it installed one.
func (m *Manager) FlushFirst() bool {
	// A successful Flush edits m.dirty, but the loop returns right after.
	for _, id := range m.dirty {
		if m.canFlush(id) {
			if err := m.Flush(id); err == nil {
				return true
			}
		}
	}
	return false
}

// DirtyPages returns the dirty page ids in sorted order. The slice is
// the caller's: it may range over it while flushing.
func (m *Manager) DirtyPages() []model.Var {
	return append([]model.Var(nil), m.dirty...)
}

// RecLSN returns the recLSN of a page if it is dirty: the LSN of the
// first operation that dirtied it since it was last clean.
func (m *Manager) RecLSN(id model.Var) (core.LSN, bool) {
	p, ok := m.pages[id]
	if !ok || !p.dirty {
		return 0, false
	}
	return p.recLSN, true
}

// MinRecLSN returns the smallest recLSN among dirty pages and true, or 0
// and false when the cache is clean. Fuzzy checkpoints record this as the
// redo scan bound: every operation below it is installed.
func (m *Manager) MinRecLSN() (core.LSN, bool) {
	var min core.LSN
	found := false
	for _, p := range m.pages {
		if p.dirty && (!found || p.recLSN < min) {
			min = p.recLSN
			found = true
		}
	}
	return min, found
}

// Crash discards the cache and all pending dependencies.
func (m *Manager) Crash() {
	m.pages = make(map[model.Var]*page)
	m.dirty = nil
	m.deps = nil
}
