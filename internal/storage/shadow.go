package storage

import "redotheory/internal/model"

// ShadowTable models System R's staging area and page-table pointer
// (Section 6.1): updated pages are written to a staging area while the
// current stable state stays untouched; Swing atomically makes the
// staged pages current — "writing this checkpoint record 'swings a
// pointer' that atomically installs into stable state all operations
// logged since the previous checkpoint". A crash before the swing
// discards the staging area and leaves the previous stable state intact.
//
// Staging writes are individually durable but the staged pages are
// unreachable until the swing: shadow paging's directory indirection is
// what makes the multi-page installation a single atomic pointer update,
// which is why Swing never tears even though it covers many pages.
type ShadowTable struct {
	store   *Store
	staging map[model.Var]Page
	// Swings counts completed pointer swings.
	Swings int
}

// NewShadowTable returns a staging area over the store.
func NewShadowTable(store *Store) *ShadowTable {
	return &ShadowTable{store: store, staging: make(map[model.Var]Page)}
}

// StagePage writes a page into the staging area. The current state is
// not affected.
func (s *ShadowTable) StagePage(id model.Var, p Page) {
	s.staging[id] = p
}

// staged returns the number of pages waiting for the swing.
func (s *ShadowTable) staged() int { return len(s.staging) }

// Swing atomically replaces the current versions of every staged page
// and empties the staging area. Under an armed torn-group fault the
// swing can tear partway (the directory update caught mid-write); the
// staging area is then left intact so a subsequent crash Discard models
// the aborted installation, and the error reports the tear.
func (s *ShadowTable) Swing() error {
	if err := s.store.WriteGroup(s.staging); err != nil {
		return err
	}
	s.staging = make(map[model.Var]Page)
	s.Swings++
	return nil
}

// Discard drops the staging area, as a crash before the swing does.
func (s *ShadowTable) Discard() {
	s.staging = make(map[model.Var]Page)
}
