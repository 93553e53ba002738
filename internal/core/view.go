package core

import (
	"fmt"
	"sync"

	"redotheory/internal/dense"
	"redotheory/internal/model"
	"redotheory/internal/obs"
)

// RecordView is the flat, interned projection of one log record: the
// operation's read and write sets as dense variable ids, aligned
// index-for-index with Rec.Op.Reads() and Rec.Op.Writes(), plus the
// record's cached wire size. Views are what the dense replay engines
// iterate instead of re-hashing variable names per record.
type RecordView struct {
	Rec *Record
	// Reads and Writes are arena-backed slices shared by the whole
	// LogView; callers must not modify them.
	Reads  []uint32
	Writes []uint32
	// Size is Rec.SizeBytes, precomputed once at view-build time.
	Size int
}

// ReplayBuf holds the positional value buffers one replay loop (one
// sequential recovery, one parallel worker, one lazily redone
// component) reuses across records. The zero value is ready to use;
// a ReplayBuf must not be shared between goroutines.
type ReplayBuf struct{ vals []model.Value }

// Replay is the redo step every dense engine runs: gather the
// record's read values from the arena by interned id, apply the
// operation's positional function, scatter its outputs to the write
// ids. Writes go to the value slots only (StoreRaw), which is what
// lets workers replaying disjoint components share ds; a caller that
// consults the presence bitmap afterwards must Mark the written ids.
func (v *RecordView) Replay(ds *dense.State, buf *ReplayBuf) error {
	nr, n := len(v.Reads), len(v.Reads)+len(v.Writes)
	if cap(buf.vals) < n {
		buf.vals = make([]model.Value, 2*n)
	}
	reads, out := buf.vals[:nr], buf.vals[nr:n]
	for k, id := range v.Reads {
		reads[k] = ds.Value(id)
	}
	// A function that skips a slot must write the zero Value, not
	// whatever the previous record left there.
	clear(out)
	if err := v.Rec.Op.Apply(reads, out); err != nil {
		return err
	}
	for k, id := range v.Writes {
		ds.StoreRaw(id, out[k])
	}
	return nil
}

// LogView is the dense projection of a log: one interner covering
// every variable any logged operation touches, and one RecordView per
// record, aligned with log.Records(). A LogView is immutable after
// construction and safe for concurrent readers; ids are only
// meaningful relative to In.
type LogView struct {
	In    *dense.Interner
	Views []RecordView
}

// Replay is the component-replay routine every partitioned engine
// shares: it redoes the records at view indexes idx in the order given —
// LSN order, a component's topological schedule — storing writes raw
// into ds. Runs over disjoint components may share ds concurrently: no
// component reads a variable another writes (the partition invariant),
// so every read observes what sequential replay would have. buf is the
// caller's, reused across runs. On failure it returns the failing record
// beside the error, so concurrent failures can resolve to the
// smallest-LSN one.
func (lv *LogView) Replay(ds *dense.State, idx []int, buf *ReplayBuf) (*Record, error) {
	for _, vi := range idx {
		v := &lv.Views[vi]
		if err := v.Replay(ds, buf); err != nil {
			return v.Rec, fmt.Errorf("core: replaying %s: %w", v.Rec.Op, err)
		}
	}
	return nil, nil
}

// InstallWrites publishes what replay stored raw: Mark restores the
// presence bits of the written ids, and WriteBack is where the dense
// representation rejoins the map/string API. Presence words are shared
// across ids, so calls on one ds must be serialized.
func InstallWrites(ds *dense.State, state *model.State, ids []uint32) {
	for _, id := range ids {
		ds.Mark(id)
	}
	ds.WriteBack(state, ids)
}

// NewLogView builds the dense projection of the log: a single pass
// over the records interns every read/write variable (this is where
// strings stop) and lays the id slices out in one shared arena.
func NewLogView(log *Log) *LogView {
	recs := log.Records()
	total := 0
	for _, r := range recs {
		total += len(r.Op.Reads()) + len(r.Op.Writes())
	}
	arena := make([]uint32, 0, total)
	in := dense.NewInterner()
	lv := &LogView{In: in, Views: make([]RecordView, len(recs))}
	for i, r := range recs {
		v := &lv.Views[i]
		v.Rec = r
		v.Size = r.SizeBytes()
		start := len(arena)
		for _, x := range r.Op.Reads() {
			arena = append(arena, in.Intern(x))
		}
		v.Reads = arena[start:len(arena):len(arena)]
		start = len(arena)
		for _, x := range r.Op.Writes() {
			arena = append(arena, in.Intern(x))
		}
		v.Writes = arena[start:len(arena):len(arena)]
	}
	return lv
}

// ViewCache memoizes LogView construction the way GraphCache memoizes
// graph construction, and under the same key: (first record, last
// record, length) by pointer identity. A view is a pure function of
// the record sequence, records are shared by every derived log
// (Prefix, StableLog projections), and recovery re-examines the same
// stable prefix many times — once per bench iteration, once per
// oracle leg — so the interner and id slices are built once per
// distinct prefix instead of once per recovery.
type ViewCache struct {
	mu      sync.Mutex
	entries map[graphKey]*LogView
	fifo    []graphKey
	cap     int
	// Hits and Misses count lookups, for tests and tuning.
	Hits, Misses int
}

// NewViewCache returns a cache holding at most capacity log prefixes
// (FIFO eviction; capacity < 1 means 1).
func NewViewCache(capacity int) *ViewCache {
	if capacity < 1 {
		capacity = 1
	}
	return &ViewCache{entries: make(map[graphKey]*LogView), cap: capacity}
}

// DefaultViews is the process-wide cache used by the dense recovery
// engines.
var DefaultViews = NewViewCache(128)

// ViewOf returns the (possibly cached) dense view of the log's record
// sequence, building and caching it on first sight, and counts the
// lookup as a hit or miss on the recorder (MViewHits / MViewMisses; nil
// disables), so campaign reports can show how often the dense
// projection was reused versus rebuilt. Callers must treat the view as
// immutable.
func (c *ViewCache) ViewOf(log *Log, rec *obs.Recorder) *LogView {
	lv, hit := c.viewOf(log)
	if hit {
		rec.Inc(obs.MViewHits)
	} else {
		rec.Inc(obs.MViewMisses)
	}
	return lv
}

// viewOf reports whether the lookup hit alongside the view.
func (c *ViewCache) viewOf(log *Log) (*LogView, bool) {
	key := keyOf(log)
	c.mu.Lock()
	if lv, ok := c.entries[key]; ok {
		c.Hits++
		c.mu.Unlock()
		return lv, true
	}
	c.Misses++
	c.mu.Unlock()

	// Build outside the lock, as GraphCache does: a rare duplicate
	// build beats serializing every worker on construction.
	lv := NewLogView(log)

	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		return e, false
	}
	for len(c.fifo) >= c.cap {
		evict := c.fifo[0]
		c.fifo = c.fifo[1:]
		delete(c.entries, evict)
	}
	c.entries[key] = lv
	c.fifo = append(c.fifo, key)
	return lv, false
}

// Len returns the number of cached prefixes.
func (c *ViewCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
