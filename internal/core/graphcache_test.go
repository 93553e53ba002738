package core

import (
	"testing"

	"redotheory/internal/model"
	"redotheory/internal/obs"
)

func TestGraphCacheHitsOnSameLog(t *testing.T) {
	c := NewGraphCache(4)
	l := logOf(model.Incr(1, "x", 1), model.CopyPlus(2, "y", "x", 1))
	cg1, ig1 := c.GraphsObserved(l, nil)
	cg2, ig2 := c.GraphsObserved(l, nil)
	if cg1 != cg2 || ig1 != ig2 {
		t.Error("second lookup rebuilt the graphs")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Errorf("Hits = %d, Misses = %d, want 1 and 1", c.Hits, c.Misses)
	}
	if cg1.NumOps() != 2 {
		t.Errorf("cached conflict graph has %d ops", cg1.NumOps())
	}
}

func TestGraphCacheHitsAcrossSharedProjections(t *testing.T) {
	// Prefix shares record pointers with its source, so a full-length
	// prefix is the same key and a shorter prefix a different one.
	c := NewGraphCache(4)
	l := logOf(model.Incr(1, "x", 1), model.Incr(2, "x", 1), model.Incr(3, "x", 1))
	cgFull, _ := c.GraphsObserved(l, nil)
	cgSame, _ := c.GraphsObserved(l.Prefix(3), nil)
	if cgFull != cgSame {
		t.Error("identical record sequence missed the cache")
	}
	cgShort, _ := c.GraphsObserved(l.Prefix(2), nil)
	if cgShort == cgFull {
		t.Error("shorter prefix shared the full log's graphs")
	}
	if cgShort.NumOps() != 2 {
		t.Errorf("prefix graph has %d ops, want 2", cgShort.NumOps())
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

func TestGraphCacheKeyChangesOnAppend(t *testing.T) {
	c := NewGraphCache(4)
	l := logOf(model.Incr(1, "x", 1))
	cg1, _ := c.GraphsObserved(l, nil)
	l.Append(model.Incr(2, "x", 1))
	cg2, _ := c.GraphsObserved(l, nil)
	if cg1 == cg2 {
		t.Error("appended log reused the stale cached graph")
	}
	if cg2.NumOps() != 2 {
		t.Errorf("rebuilt graph has %d ops, want 2", cg2.NumOps())
	}
}

func TestGraphCacheEvictsFIFO(t *testing.T) {
	c := NewGraphCache(2)
	l1 := logOf(model.Incr(1, "x", 1))
	l2 := logOf(model.Incr(2, "x", 1))
	l3 := logOf(model.Incr(3, "x", 1))
	c.GraphsObserved(l1, nil)
	c.GraphsObserved(l2, nil)
	c.GraphsObserved(l3, nil) // evicts l1
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	misses := c.Misses
	c.GraphsObserved(l2, nil) // still cached
	if c.Misses != misses {
		t.Error("l2 was evicted; FIFO should have evicted l1")
	}
	c.GraphsObserved(l1, nil) // rebuilt
	if c.Misses != misses+1 {
		t.Error("l1 should have been evicted and rebuilt")
	}
}

func TestGraphCacheEmptyLog(t *testing.T) {
	c := NewGraphCache(2)
	cg1, _ := c.GraphsObserved(NewLog(), nil)
	cg2, _ := c.GraphsObserved(NewLog(), nil)
	if cg1 != cg2 {
		t.Error("two empty logs should share the empty-key entry")
	}
	if cg1.NumOps() != 0 {
		t.Errorf("empty log graph has %d ops", cg1.NumOps())
	}
}

func TestGraphCacheConcurrentAccess(t *testing.T) {
	c := NewGraphCache(8)
	logs := []*Log{
		logOf(model.Incr(1, "x", 1), model.Incr(2, "y", 1)),
		logOf(model.Incr(3, "x", 1)),
		logOf(model.Incr(4, "z", 2), model.CopyPlus(5, "x", "z", 1)),
	}
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				l := logs[(w+i)%len(logs)]
				cg, ig := c.GraphsObserved(l, nil)
				if cg == nil || ig == nil {
					t.Error("nil graph from cache")
					return
				}
			}
		}(w)
	}
	for w := 0; w < 8; w++ {
		<-done
	}
}

// TestGraphCacheCountersOnRecorder mirrors the view-cache counter test
// for the op-graph cache: MGraphMisses on first build, MGraphHits on
// reuse, nil recorder tolerated.
func TestGraphCacheCountersOnRecorder(t *testing.T) {
	c := NewGraphCache(4)
	l := logOf(model.Incr(1, "x", 1), model.CopyPlus(2, "y", "x", 1))
	rec := obs.New()
	cg1, ig1 := c.GraphsObserved(l, rec)
	if got := rec.Snapshot().Counter(obs.MGraphMisses); got != 1 {
		t.Fatalf("graph misses = %d after first lookup, want 1", got)
	}
	cg2, ig2 := c.GraphsObserved(l, rec)
	if cg2 != cg1 || ig2 != ig1 {
		t.Fatal("cache returned different graphs for the same prefix")
	}
	if got := rec.Snapshot().Counter(obs.MGraphHits); got != 1 {
		t.Fatalf("graph hits = %d after reuse, want 1", got)
	}
	if cg3, _ := c.GraphsObserved(l, nil); cg3 != cg1 {
		t.Fatal("nil-recorder lookup returned different graphs")
	}
}
