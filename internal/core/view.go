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
	b := newViewBuilder(log)
	b.Extend(len(b.recs))
	return b.lv
}

// ViewBuilder builds a log's dense view a chunk of records at a time,
// so one goroutine can keep interning later records while another
// replays earlier ones (pipelined recovery, DESIGN.md §8). The record
// views and the id arena are sized for the whole log up front and never
// reallocated, so a view, once built, never moves or changes; only the
// goroutine that owns the builder may call its methods.
type ViewBuilder struct {
	lv    *LogView
	recs  []*Record
	arena []uint32
	built int // records [0, built) have views
	// cache receives the finished view on a miss (nil on a hit).
	cache *ViewCache
	key   graphKey
}

func newViewBuilder(log *Log) *ViewBuilder {
	recs := log.Records()
	total := 0
	for _, r := range recs {
		total += len(r.Op.Reads()) + len(r.Op.Writes())
	}
	return &ViewBuilder{
		lv:    &LogView{In: dense.NewInterner(), Views: make([]RecordView, len(recs))},
		recs:  recs,
		arena: make([]uint32, 0, total),
	}
}

// View returns the view under construction: Views[i] is valid for the
// records Extend has reached, and In holds exactly the ids they use. A
// builder that came complete from the cache has reached every record.
func (b *ViewBuilder) View() *LogView { return b.lv }

// Extend builds the views of the records before end (clamped to the
// log's length), interning their variables.
func (b *ViewBuilder) Extend(end int) {
	in := b.lv.In
	for ; b.built < min(end, len(b.recs)); b.built++ {
		r, v := b.recs[b.built], &b.lv.Views[b.built]
		v.Rec = r
		v.Size = r.SizeBytes()
		reads := r.Op.Reads()
		start := len(b.arena)
		for _, x := range reads {
			b.arena = append(b.arena, in.Intern(x))
		}
		v.Reads = b.arena[start:len(b.arena):len(b.arena)]
		start = len(b.arena)
	writes:
		for _, x := range r.Op.Writes() {
			// A read-modify-write names its page twice; reuse the id
			// the read interned rather than hash the name again.
			for k, y := range reads {
				if x == y {
					b.arena = append(b.arena, v.Reads[k])
					continue writes
				}
			}
			b.arena = append(b.arena, in.Intern(x))
		}
		v.Writes = b.arena[start:len(b.arena):len(b.arena)]
	}
}

// Finish builds the remaining views and, if the view was not already
// cached, caches it — unless a concurrent build of the same log got
// there first. It returns the builder's own view either way: ids are
// only meaningful relative to the interner that minted them.
func (b *ViewBuilder) Finish() *LogView {
	b.Extend(len(b.recs))
	if c := b.cache; c != nil {
		b.cache = nil
		c.mu.Lock()
		defer c.mu.Unlock()
		if _, ok := c.entries[b.key]; !ok {
			for len(c.fifo) >= c.cap {
				evict := c.fifo[0]
				c.fifo = c.fifo[1:]
				delete(c.entries, evict)
			}
			c.entries[b.key] = b.lv
			c.fifo = append(c.fifo, b.key)
		}
	}
	return b.lv
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
	return c.Builder(log, rec).Finish()
}

// Builder is ViewOf for a caller that consumes the view while it is
// being built: on a hit the builder comes complete, on a miss it starts
// empty and Finish caches what it built. The lookup is counted as
// ViewOf counts it. Building happens outside the cache lock, as
// GraphCache does: a rare duplicate build beats serializing every
// recovery on construction.
func (c *ViewCache) Builder(log *Log, rec *obs.Recorder) *ViewBuilder {
	key := keyOf(log)
	c.mu.Lock()
	lv, hit := c.entries[key]
	if hit {
		c.Hits++
	} else {
		c.Misses++
	}
	c.mu.Unlock()
	if hit {
		rec.Inc(obs.MViewHits)
		return &ViewBuilder{lv: lv}
	}
	rec.Inc(obs.MViewMisses)
	b := newViewBuilder(log)
	b.cache, b.key = c, key
	return b
}

// Len returns the number of cached prefixes.
func (c *ViewCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
