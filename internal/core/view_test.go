package core

import (
	"fmt"
	"testing"

	"redotheory/internal/dense"
	"redotheory/internal/model"
	"redotheory/internal/obs"
)

// viewFixtureLog builds a small log mixing blind writes, read-modify-
// write chains, and multi-variable operations, with wire sizes attached
// the way the log manager does.
func viewFixtureLog() *Log {
	l := NewLog()
	mk := func(id model.OpID, reads, writes []model.Var) {
		r := l.Append(model.ReadWrite(id, fmt.Sprintf("op%d", id), reads, writes))
		r.SetSizeBytes(int(id) * 10)
	}
	mk(1, nil, []model.Var{"x"})
	mk(2, []model.Var{"x"}, []model.Var{"x", "y"})
	mk(3, []model.Var{"y", "x"}, []model.Var{"z"})
	mk(4, nil, []model.Var{"w", "y"})
	mk(5, []model.Var{"z", "w"}, []model.Var{"x"})
	return l
}

// TestLogViewAlignment: every record view's Reads and Writes are the
// record's Op.Reads()/Op.Writes() interned index-for-index, and Size is
// the record's SizeBytes — the invariant the dense replay engines rely
// on when they pair view ids with the operation's variable slices.
func TestLogViewAlignment(t *testing.T) {
	l := viewFixtureLog()
	lv := NewLogView(l)
	if len(lv.Views) != l.Len() {
		t.Fatalf("view has %d records, log has %d", len(lv.Views), l.Len())
	}
	for i, r := range l.Records() {
		v := &lv.Views[i]
		if v.Rec != r {
			t.Fatalf("view %d points at record %v, want %v", i, v.Rec, r)
		}
		reads, writes := r.Op.Reads(), r.Op.Writes()
		if len(v.Reads) != len(reads) || len(v.Writes) != len(writes) {
			t.Fatalf("view %d: %d reads / %d writes, op has %d / %d",
				i, len(v.Reads), len(v.Writes), len(reads), len(writes))
		}
		for k, id := range v.Reads {
			if got := lv.In.Var(id); got != reads[k] {
				t.Errorf("view %d read %d: id %d resolves to %q, op reads %q", i, k, id, got, reads[k])
			}
		}
		for k, id := range v.Writes {
			if got := lv.In.Var(id); got != writes[k] {
				t.Errorf("view %d write %d: id %d resolves to %q, op writes %q", i, k, id, got, writes[k])
			}
		}
		if v.Size != r.SizeBytes() {
			t.Errorf("view %d: Size = %d, record SizeBytes = %d", i, v.Size, r.SizeBytes())
		}
	}
}

// TestViewCacheReuse: the cache hands back the identical *LogView for
// an unchanged record sequence (the pointer-identity key GraphCache
// uses) and a fresh one once the sequence differs.
func TestViewCacheReuse(t *testing.T) {
	c := NewViewCache(4)
	l := viewFixtureLog()
	v1 := c.ViewOf(l, nil)
	v2 := c.ViewOf(l, nil)
	if v1 != v2 {
		t.Fatal("cache rebuilt the view for an unchanged log")
	}
	// A prefix shares record pointers but differs in length — it must
	// get its own view.
	p := l.Prefix(3)
	vp := c.ViewOf(p, nil)
	if vp == v1 {
		t.Fatal("cache returned the full log's view for a prefix")
	}
	if len(vp.Views) != 3 {
		t.Fatalf("prefix view has %d records, want 3", len(vp.Views))
	}
	// Appending changes the sequence; the view must be rebuilt.
	l.Append(model.ReadWrite(6, "op6", nil, []model.Var{"q"}))
	v3 := c.ViewOf(l, nil)
	if v3 == v1 {
		t.Fatal("cache returned the stale view after an append")
	}
	if len(v3.Views) != 6 {
		t.Fatalf("rebuilt view has %d records, want 6", len(v3.Views))
	}
}

// TestRecordSizeBytes: the append-time cache is authoritative and
// parse-free; decoded legacy records (labels only, never sealed) fall
// back to parsing the "bytes" label per call; absent both, zero.
func TestRecordSizeBytes(t *testing.T) {
	sealed := &Record{Labels: map[string]string{"bytes": "999"}}
	sealed.SetSizeBytes(42)
	if got := sealed.SizeBytes(); got != 42 {
		t.Errorf("sealed record: SizeBytes = %d, want the cached 42 over the label's 999", got)
	}

	legacy := &Record{Labels: map[string]string{"bytes": "17"}}
	if got := legacy.SizeBytes(); got != 17 {
		t.Errorf("legacy record: SizeBytes = %d, want 17 parsed from the label", got)
	}
	// Parsing is per-call, never cached: a label rewrite is visible.
	legacy.Labels["bytes"] = "23"
	if got := legacy.SizeBytes(); got != 23 {
		t.Errorf("legacy record after label rewrite: SizeBytes = %d, want 23", got)
	}

	bare := &Record{}
	if got := bare.SizeBytes(); got != 0 {
		t.Errorf("bare record: SizeBytes = %d, want 0", got)
	}
	garbled := &Record{Labels: map[string]string{"bytes": "not-a-number"}}
	if got := garbled.SizeBytes(); got != 0 {
		t.Errorf("garbled label: SizeBytes = %d, want 0", got)
	}

	clamped := &Record{}
	clamped.SetSizeBytes(-5)
	if got := clamped.SizeBytes(); got != 0 {
		t.Errorf("negative size: SizeBytes = %d, want clamped 0", got)
	}
}

// TestViewCacheCountersOnRecorder: the observed lookup surfaces cache
// effectiveness on the recorder — one miss on first sight of a prefix,
// hits on every reuse — under the keys redostats renders.
func TestViewCacheCountersOnRecorder(t *testing.T) {
	l := viewFixtureLog()
	c := NewViewCache(4)
	rec := obs.New()
	first := c.ViewOf(l, rec)
	if got := rec.Snapshot().Counter(obs.MViewMisses); got != 1 {
		t.Fatalf("view misses = %d after first lookup, want 1", got)
	}
	for i := 0; i < 3; i++ {
		if c.ViewOf(l, rec) != first {
			t.Fatal("cache returned a different view for the same prefix")
		}
	}
	if got := rec.Snapshot().Counter(obs.MViewHits); got != 3 {
		t.Fatalf("view hits = %d after three reuses, want 3", got)
	}
	// A nil recorder is the disabled path: no panic, same view.
	if c.ViewOf(l, nil) != first {
		t.Fatal("nil-recorder lookup returned a different view")
	}
}

// TestPipelineViewBuilder: a view built a few records at a time while
// another goroutine consumes each finished range — the views, and the
// variables interned for them via Interner.Since, growing a dense state
// — sees exactly what NewLogView builds, and Finish caches the view so
// the next Builder comes complete. Under -race this is the proof that
// the consumer may read what Extend published while Extend keeps going.
func TestPipelineViewBuilder(t *testing.T) {
	l := NewLog()
	for i := 0; i < 200; i++ {
		x, y := model.Var(fmt.Sprintf("v%d", i%37)), model.Var(fmt.Sprintf("v%d", (i*7)%53))
		l.Append(model.ReadWrite(model.OpID(i+1), "op", []model.Var{x}, []model.Var{y}))
	}
	stable := model.NewState()
	stable.Set("v3", "3")
	c := NewViewCache(4)
	b := c.Builder(l, nil)
	lv := b.View()

	type chunk struct {
		from, to int
		vars     []model.Var
	}
	out := make(chan chunk, l.Len())
	got := make(chan *dense.State)
	go func() {
		ds := dense.Empty(lv.In)
		for ch := range out {
			ds.Grow(stable, ch.vars)
			for i := ch.from; i < ch.to; i++ {
				for _, id := range append(lv.Views[i].Reads, lv.Views[i].Writes...) {
					if int(id) >= ds.Len() {
						t.Errorf("record %d uses id %d beyond the %d ids handed over", i, id, ds.Len())
					}
				}
			}
		}
		got <- ds
	}()
	ids := 0
	for from := 0; from < l.Len(); from += 7 {
		to := min(from+7, l.Len())
		b.Extend(to)
		out <- chunk{from, to, lv.In.Since(ids)}
		ids = lv.In.Len()
	}
	close(out)
	ds := <-got
	if fin := b.Finish(); fin != lv {
		t.Fatal("Finish returned a view other than the one built")
	}

	want := NewLogView(l)
	for i := range want.Views {
		w, g := &want.Views[i], &lv.Views[i]
		if g.Rec != w.Rec || fmt.Sprint(g.Reads, g.Writes) != fmt.Sprint(w.Reads, w.Writes) {
			t.Fatalf("record %d: built %v/%v, NewLogView %v/%v", i, g.Reads, g.Writes, w.Reads, w.Writes)
		}
	}
	if !ds.Equal(dense.FromState(lv.In, stable)) {
		t.Error("state grown range by range differs from FromState")
	}
	if hit := c.Builder(l, nil); hit.View() != lv || c.Hits != 1 || c.Misses != 1 {
		t.Errorf("second Builder: view reused %v, hits %d, misses %d; want the cached view, 1 and 1", hit.View() == lv, c.Hits, c.Misses)
	}
}
