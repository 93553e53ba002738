package core

import (
	"sync"

	"redotheory/internal/conflict"
	"redotheory/internal/install"
	"redotheory/internal/obs"
)

// GraphCache memoizes conflict- and installation-graph construction
// keyed on log content. During a fault campaign the same stable log
// prefix is analyzed repeatedly — the invariant checker, degraded
// recovery's audit, and the parallel replay planner each regenerate the
// conflict graph from the same records — and the graphs are pure
// functions of the record sequence, so rebuilding them is wasted work.
//
// The key is (first record, last record, length) by pointer identity.
// Records are created once by Log.Append and shared by every derived
// log (Prefix, TruncateBefore, the WAL manager's StableLog projection),
// and a log's records are a contiguous LSN-ordered run of its source's,
// so two logs agreeing on those three fields hold identical record
// sequences. Media-fault corruption (wal.CorruptRecord) poisons
// checksums without touching the operation a record carries, so a
// cached graph stays valid across it.
//
// Cached graphs are shared: callers must treat them as immutable
// (read-only queries only, no Append/Sync). All methods are safe for
// concurrent use — the parallel campaign engine hits one cache from
// many workers.
type GraphCache struct {
	mu      sync.Mutex
	entries map[graphKey]*graphEntry
	fifo    []graphKey
	cap     int
	// Hits and Misses count lookups, for tests and tuning.
	Hits, Misses int
}

type graphKey struct {
	first, last *Record
	n           int
}

type graphEntry struct {
	cg *conflict.Graph
	ig *install.Graph
}

// NewGraphCache returns a cache holding at most capacity log prefixes
// (FIFO eviction; capacity < 1 means 1).
func NewGraphCache(capacity int) *GraphCache {
	if capacity < 1 {
		capacity = 1
	}
	return &GraphCache{entries: make(map[graphKey]*graphEntry), cap: capacity}
}

// DefaultGraphs is the process-wide cache used by NewChecker and the
// partition planner.
var DefaultGraphs = NewGraphCache(128)

func keyOf(log *Log) graphKey {
	recs := log.Records()
	if len(recs) == 0 {
		return graphKey{}
	}
	return graphKey{first: recs[0], last: recs[len(recs)-1], n: len(recs)}
}

// GraphsObserved returns the conflict graph and installation graph for
// the log's record sequence, building and caching them on first sight.
// The lookup is counted as a hit or miss on the recorder (MGraphHits /
// MGraphMisses); rec may be nil.
func (c *GraphCache) GraphsObserved(log *Log, rec *obs.Recorder) (*conflict.Graph, *install.Graph) {
	cg, ig, hit := c.graphs(log)
	if hit {
		rec.Inc(obs.MGraphHits)
	} else {
		rec.Inc(obs.MGraphMisses)
	}
	return cg, ig
}

// graphs reports whether the lookup hit alongside the graphs.
func (c *GraphCache) graphs(log *Log) (*conflict.Graph, *install.Graph, bool) {
	key := keyOf(log)
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.Hits++
		c.mu.Unlock()
		return e.cg, e.ig, true
	}
	c.Misses++
	c.mu.Unlock()

	// Build outside the lock: construction is the expensive part, and a
	// rare duplicate build is cheaper than serializing every worker.
	cg := log.ConflictGraph()
	ig := install.FromConflict(cg)

	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		return e.cg, e.ig, false
	}
	for len(c.fifo) >= c.cap {
		evict := c.fifo[0]
		c.fifo = c.fifo[1:]
		delete(c.entries, evict)
	}
	c.entries[key] = &graphEntry{cg: cg, ig: ig}
	c.fifo = append(c.fifo, key)
	return cg, ig, false
}

// Conflict returns the (possibly cached) conflict graph for the log.
func (c *GraphCache) Conflict(log *Log) *conflict.Graph {
	cg, _, _ := c.graphs(log)
	return cg
}

// Len returns the number of cached prefixes.
func (c *GraphCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
