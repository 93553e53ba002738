package cache

import (
	"fmt"

	"redotheory/internal/core"
	"redotheory/internal/model"
	"redotheory/internal/obs"
	"redotheory/internal/storage"
	"redotheory/internal/wal"
)

// Multi-version mode. The paper's state graphs deliberately "permit us
// to consider regimes that maintain multiple versions of variables"
// (Section 1.3): a cache holding one copy per page must collapse every
// operation's update into it, and collapses can create write-order
// cycles — page A may not be flushed past LSN x until B is stable, while
// B may not be flushed past LSN y until A is stable. Retaining older
// page versions dissolves such cycles: the cache can install an *older*
// version of A (below the dependency's LSN), unblocking B, then finish
// A. In write graph terms, keeping versions means not collapsing the
// page's nodes, so the graph stays acyclic.

// pageVersion is a retained older version of a cached page.
type pageVersion struct {
	data model.Value
	lsn  core.LSN
}

// NewMVManager returns a cache manager that retains older versions of
// dirty pages, enabling version-at-a-time installation.
func NewMVManager(store *storage.Store, log *wal.Manager) *Manager {
	m := NewManager(store, log)
	m.multiVersion = true
	return m
}

// MultiVersion reports whether the cache retains older page versions.
func (m *Manager) MultiVersion() bool { return m.multiVersion }

// candidates lists the page's unflushed versions, newest first.
func (p *page) candidates() []pageVersion {
	out := make([]pageVersion, 0, len(p.older)+1)
	out = append(out, pageVersion{data: p.data, lsn: p.pageLSN})
	for i := len(p.older) - 1; i >= 0; i-- {
		out = append(out, p.older[i])
	}
	return out
}

// bestFlushable returns the newest unblocked version of a dirty page.
func (m *Manager) bestFlushable(id model.Var) (pageVersion, bool) {
	p, ok := m.pages[id]
	if !ok || !p.dirty {
		return pageVersion{}, false
	}
	for _, v := range p.candidates() {
		if _, blocked := m.blockedBy(id, v.lsn); !blocked {
			return v, true
		}
	}
	return pageVersion{}, false
}

// flushBest installs the newest version of the page whose dependencies
// are satisfied. In single-version mode only the current version is a
// candidate, so flushBest coincides with Flush. Flushing an older
// version leaves the page dirty with the newer versions retained.
func (m *Manager) flushBest(id model.Var) error {
	p, ok := m.pages[id]
	if !ok || !p.dirty {
		return fmt.Errorf("cache: page %q is not dirty", id)
	}
	v, ok := m.bestFlushable(id)
	if !ok {
		return fmt.Errorf("cache: every version of %q is blocked by a write-order dependency", id)
	}
	if m.EnforceWAL {
		m.log.FlushTo(v.lsn)
	}
	m.store.Write(id, v.data, v.lsn)
	m.Flushes++
	if v.lsn == p.pageLSN {
		m.rec.Inc(obs.MCacheFlushes)
		m.rec.Emit(obs.Event{Type: obs.EvCacheFlush, Page: string(id), LSN: int64(v.lsn)})
	} else {
		// An older version installed out from under the blocked newest
		// one: the multi-version cache's "steal".
		m.rec.Inc(obs.MCacheSteals)
		m.rec.Emit(obs.Event{Type: obs.EvCacheSteal, Page: string(id), LSN: int64(v.lsn)})
	}
	if m.OnInstall != nil {
		m.OnInstall(id, v.lsn)
	}
	if v.lsn == p.pageLSN {
		m.markClean(id, p)
	} else {
		// Drop the flushed version and everything older; the oldest
		// retained version's LSN becomes the new recLSN.
		kept := p.older[:0]
		for _, ov := range p.older {
			if ov.lsn > v.lsn {
				kept = append(kept, ov)
			}
		}
		p.older = kept
		if len(p.older) > 0 {
			p.recLSN = p.older[0].lsn
		} else {
			p.recLSN = p.pageLSN
		}
		keptOps := p.opsSince[:0]
		for _, lsn := range p.opsSince {
			if lsn > v.lsn {
				keptOps = append(keptOps, lsn)
			}
		}
		p.opsSince = keptOps
	}
	m.pruneDeps()
	return nil
}

// canFlushBest reports whether some version of the page is installable.
func (m *Manager) canFlushBest(id model.Var) bool {
	_, ok := m.bestFlushable(id)
	return ok
}

// FlushFirstBest is FlushFirst with version-at-a-time installation: it
// may install an older version of a page whose newest version is
// blocked.
func (m *Manager) FlushFirstBest() bool {
	for _, id := range m.dirty {
		if m.canFlushBest(id) {
			if err := m.flushBest(id); err == nil {
				return true
			}
		}
	}
	return false
}
