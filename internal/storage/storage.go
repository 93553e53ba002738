// Package storage simulates the stable state: a page store that survives
// crashes. Pages are the system's variables; a page write is atomic at
// page granularity (the standard disk assumption behind physiological
// recovery), and optional multi-page atomic groups model the
// shadow-paging "pointer swing" of System R-style logical recovery
// (Section 6.1) and the multi-variable atomic installations of Section 5.
//
// Every page carries an LSN tag — "the LSN is usually on the page"
// (Section 6.3) — naming the last operation whose effects the page
// reflects, plus an integrity checksum over (page id, contents, LSN) so
// media faults are detectable. The store is also the injection point for
// the media-fault model of internal/fault: group writes can tear
// (leaving an uncleared group-intent journal behind, the doublewrite
// buffer's detection trick), single writes can be silently lost (a dead
// sector revealed only at crash realization), and pages can bit-rot
// (caught by the checksum). Clean crashes never need any of this; the
// degraded-recovery path in internal/method consumes the detections.
package storage

import (
	"fmt"
	"sort"
	"strconv"

	"redotheory/internal/core"
	"redotheory/internal/fault"
	"redotheory/internal/model"
)

// Page is a stable page: contents, the LSN tag of the last operation
// that updated it, and an integrity checksum sealed at write time.
type Page struct {
	Data model.Value
	LSN  core.LSN
	// Sum is the checksum over (page id, Data, LSN), computed by the
	// store on every write; callers building Page values by hand need
	// not fill it.
	Sum uint64
}

// pageSum computes the integrity checksum of a page as stored under id.
// Including the id catches misdirected writes as well as bit-rot.
func pageSum(id model.Var, data model.Value, lsn core.LSN) uint64 {
	return fault.Sum("page", string(id), string(data), strconv.FormatUint(uint64(lsn), 10))
}

// CorruptPageError reports a page whose contents no longer match its
// checksum: bit-rot, a torn sector, or a misdirected write.
type CorruptPageError struct {
	Page model.Var
}

func (e *CorruptPageError) Error() string {
	return fmt.Sprintf("storage: page %q is corrupt (checksum mismatch)", e.Page)
}

// TornGroupError reports a multi-page write group that applied only a
// prefix of its pages.
type TornGroupError struct {
	Applied, Size int
}

func (e *TornGroupError) Error() string {
	return fmt.Sprintf("storage: write group torn after %d of %d pages", e.Applied, e.Size)
}

// IsTorn reports whether err is (or wraps) a torn-group failure.
func IsTorn(err error) bool {
	for err != nil {
		if _, ok := err.(*TornGroupError); ok {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// lostWrite remembers the page version a dead sector will reveal at
// crash time in place of everything written since.
type lostWrite struct {
	old     Page
	existed bool
}

// Store is the stable page store. It survives Crash; everything volatile
// lives elsewhere (cache, unflushed log tail).
type Store struct {
	pages map[model.Var]Page
	// tearAfter, when non-negative, makes the next WriteGroup apply only
	// that many pages and then fail, simulating a torn multi-page write.
	tearAfter int
	// inj is the armed media-fault injector (nil when no fault armed).
	inj *fault.Injector
	// lost tracks pages whose writes a dead sector has swallowed; the
	// pre-fault version resurfaces at RealizeCrashFaults.
	lost map[model.Var]lostWrite
	// intent is the group-write intent journal: the page set of an
	// in-flight atomic group, recorded before the first page write and
	// cleared after the last. A crash (or tear) leaves it pending, which
	// is how recovery detects a torn group — the doublewrite-buffer /
	// shadow-commit protocol in miniature.
	intent []model.Var
	// repairing is the durable repair-in-progress flag (a control-file
	// dirty bit): set before degraded recovery rewrites pages, cleared
	// after the last write. A crash mid-repair leaves it set, telling the
	// rerun the page array is a half-rewritten mix that must not be
	// trusted by fast-path recovery.
	repairing bool
	// PageWrites counts individual page writes, WriteGroups counts atomic
	// group commits; benchmarks report both.
	PageWrites  int
	GroupWrites int
}

// newStore returns an empty store.
func newStore() *Store {
	return &Store{pages: make(map[model.Var]Page), tearAfter: -1}
}

// FromState initializes a store from a state, with all pages tagged LSN 0.
func FromState(s *model.State) *Store {
	st := newStore()
	for _, x := range s.Vars() {
		st.pages[x] = Page{Data: s.Get(x), LSN: 0, Sum: pageSum(x, s.Get(x), 0)}
	}
	return st
}

// Read returns the page and whether it exists. A missing page reads as
// the zero page (zero Value, LSN 0), matching the model's total states.
func (s *Store) Read(id model.Var) (Page, bool) {
	p, ok := s.pages[id]
	return p, ok
}

// PageLSN returns the LSN tag of a page (0 for missing pages).
func (s *Store) PageLSN(id model.Var) core.LSN { return s.pages[id].LSN }

// Write atomically replaces one page, sealing its checksum. Single-page
// atomicity is the baseline guarantee real disks provide (modulo torn
// sector handling, which the checksum catches).
func (s *Store) Write(id model.Var, data model.Value, lsn core.LSN) {
	if s.inj != nil && s.inj.LoseWrite(string(id)) {
		s.recordLost(id)
	}
	s.pages[id] = Page{Data: data, LSN: lsn, Sum: pageSum(id, data, lsn)}
	s.PageWrites++
}

// recordLost captures the current version of a page the first time a
// dead sector swallows a write to it. The new contents still appear in
// the store — the controller's cache keeps up the illusion — until
// RealizeCrashFaults reveals what actually reached the platter.
func (s *Store) recordLost(id model.Var) {
	if s.lost == nil {
		s.lost = make(map[model.Var]lostWrite)
	}
	if _, done := s.lost[id]; done {
		return
	}
	old, ok := s.pages[id]
	s.lost[id] = lostWrite{old: old, existed: ok}
}

// WriteGroup atomically replaces a set of pages: either all writes apply
// or (under injected tearing) a prefix does and a TornGroupError is
// returned. Logical recovery's checkpoint pointer swing and Section 5's
// multi-variable installations use this. The group's page set is
// journaled as an intent before the first write and cleared after the
// last, so a torn group is detectable at recovery.
func (s *Store) WriteGroup(pages map[model.Var]Page) error {
	ids := make([]model.Var, 0, len(pages))
	for id := range pages {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if keep, ok := s.inj.TearGroup(len(ids)); ok && s.tearAfter < 0 {
		s.tearAfter = keep
	}
	s.intent = append([]model.Var(nil), ids...)
	for i, id := range ids {
		if s.tearAfter >= 0 && i == s.tearAfter {
			s.tearAfter = -1
			return &TornGroupError{Applied: i, Size: len(ids)}
		}
		p := pages[id]
		if s.inj != nil && s.inj.LoseWrite(string(id)) {
			s.recordLost(id)
		}
		p.Sum = pageSum(id, p.Data, p.LSN)
		s.pages[id] = p
		s.PageWrites++
	}
	s.intent = nil
	s.GroupWrites++
	return nil
}

// tearNextGroup arms fault injection: the next WriteGroup applies only n
// pages and then fails, leaving the group half-written.
func (s *Store) tearNextGroup(n int) { s.tearAfter = n }

// SetInjector attaches a media-fault injector; its armed faults apply to
// subsequent writes. Pass nil to detach.
func (s *Store) SetInjector(inj *fault.Injector) { s.inj = inj }

// DisarmFaults clears every armed fault: the pending tearNextGroup and
// the attached injector. Already-swallowed lost writes stay swallowed —
// disarming stops future faults, it does not repair the platter.
func (s *Store) DisarmFaults() {
	s.tearAfter = -1
	s.inj = nil
}

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

// RealizeCrashFaults applies the media decay a crash reveals: pages with
// lost writes revert to their last version that actually reached the
// platter. It fires the corresponding injector events, then detaches the
// injector — decay happens once, and recovery's own writes must land.
// It returns the ids of the reverted pages in sorted order.
func (s *Store) RealizeCrashFaults() []model.Var {
	var reverted []model.Var
	for id, lw := range s.lost {
		if lw.existed {
			s.pages[id] = lw.old
		} else {
			delete(s.pages, id)
		}
		reverted = append(reverted, id)
	}
	sort.Slice(reverted, func(i, j int) bool { return reverted[i] < reverted[j] })
	s.lost = nil
	s.inj = nil
	return reverted
}

// CorruptPage flips the contents of a page without updating its
// checksum, simulating bit-rot on the medium. It reports whether the
// page existed.
func (s *Store) CorruptPage(id model.Var) bool {
	p, ok := s.pages[id]
	if !ok {
		return false
	}
	if len(p.Data) == 0 {
		p.Data = "\x7f"
	} else {
		b := []byte(p.Data)
		b[0] ^= 0x40
		p.Data = model.Value(b)
	}
	s.pages[id] = p
	return true
}

// verifyPage recomputes a page's checksum and returns a
// CorruptPageError on mismatch (nil for missing pages: absence is not
// corruption in the total-state model).
func (s *Store) verifyPage(id model.Var) error {
	p, ok := s.pages[id]
	if !ok {
		return nil
	}
	if p.Sum != pageSum(id, p.Data, p.LSN) {
		return &CorruptPageError{Page: id}
	}
	return nil
}

// VerifyAll checksums every materialized page and returns the corrupt
// ids in sorted order.
func (s *Store) VerifyAll() []model.Var {
	var bad []model.Var
	for id := range s.pages {
		if s.verifyPage(id) != nil {
			bad = append(bad, id)
		}
	}
	sort.Slice(bad, func(i, j int) bool { return bad[i] < bad[j] })
	return bad
}

// BeginRepair durably marks a page-repair pass as in progress.
func (s *Store) BeginRepair() { s.repairing = true }

// EndRepair clears the repair-in-progress mark after the last repair
// write has landed.
func (s *Store) EndRepair() { s.repairing = false }

// RepairPending reports whether a repair pass started but never
// finished — the page array is a half-rewritten mix.
func (s *Store) RepairPending() bool { return s.repairing }

// PendingGroupIntent returns the page set of an atomic group write that
// began but never completed (nil when none): the torn-group detector.
func (s *Store) PendingGroupIntent() []model.Var {
	if s.intent == nil {
		return nil
	}
	return append([]model.Var(nil), s.intent...)
}

// ClearGroupIntent acknowledges a pending group intent after recovery
// has repaired its pages.
func (s *Store) ClearGroupIntent() { s.intent = nil }

// PageIDs returns the ids of all materialized pages in sorted order.
func (s *Store) PageIDs() []model.Var {
	out := make([]model.Var, 0, len(s.pages))
	for id := range s.pages {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// State projects the page contents as a model state (dropping LSN tags).
func (s *Store) State() *model.State {
	out := model.NewState()
	for id, p := range s.pages {
		out.Set(id, p.Data)
	}
	return out
}

// LSNs returns a copy of the page LSN table.
func (s *Store) LSNs() map[model.Var]core.LSN {
	out := make(map[model.Var]core.LSN, len(s.pages))
	for id, p := range s.pages {
		if p.LSN != 0 {
			out[id] = p.LSN
		}
	}
	return out
}

// Clone returns an independent copy of the page array (used to snapshot
// the stable state for checkers without letting recovery mutate the
// original). Armed faults and journals are not cloned.
func (s *Store) Clone() *Store {
	c := newStore()
	for id, p := range s.pages {
		c.pages[id] = p
	}
	return c
}

// Len returns the number of materialized pages.
func (s *Store) Len() int { return len(s.pages) }
