package core

import (
	"fmt"

	"redotheory/internal/dense"
	"redotheory/internal/model"
)

// RecordView is the flat, interned projection of one log record: the
// operation's read and write sets as dense variable ids, aligned
// index-for-index with Rec.Op.Reads() and Rec.Op.Writes(). Log.Append
// interns them, so the dense replay engines iterate views instead of
// re-hashing variable names per record.
type RecordView struct{ Rec *Record }

// Reads returns the ids of the operation's reads. The slice is shared
// by every log the record is in; callers must not modify it.
func (v *RecordView) Reads() []uint32 { return v.Rec.ids[:v.Rec.nr:v.Rec.nr] }

// Writes returns the ids of the operation's writes, shared as Reads is.
func (v *RecordView) Writes() []uint32 { return v.Rec.ids[v.Rec.nr:] }

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
	ids, nr := v.Rec.ids, int(v.Rec.nr)
	if cap(buf.vals) < len(ids) {
		buf.vals = make([]model.Value, 2*len(ids))
	}
	reads, out := buf.vals[:nr], buf.vals[nr:len(ids)]
	for k, id := range ids[:nr] {
		reads[k] = ds.Value(id)
	}
	// A function that skips a slot must write the zero Value, not
	// whatever the previous record left there.
	clear(out)
	if err := v.Rec.Op.Apply(reads, out); err != nil {
		return err
	}
	for k, id := range ids[nr:] {
		ds.StoreRaw(id, out[k])
	}
	return nil
}

// LogView is the dense projection of a log: an interner naming exactly
// the variables the log's records named (truncated ones included), and
// one RecordView per record, aligned with log.Records(). A LogView never changes and is
// safe for concurrent readers; ids are only meaningful relative to In.
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

// NewLogView returns the log's dense view, built record by record as
// the log was appended: it allocates two headers and interns nothing.
// Appends to the log after the call do not change the view.
func NewLogView(log *Log) *LogView {
	n, in := len(log.views), log.in.Window(log.in.Len())
	return &LogView{In: &in, Views: log.views[:n:n]}
}

// ViewCache is empty: a log carries its own view, so there is nothing
// to memoize. The type, NewViewCache and DefaultViews remain only as
// the names bench/harness.go assigns, and go with its next change.
type ViewCache struct{}

// NewViewCache returns nil; see ViewCache.
func NewViewCache(int) *ViewCache { return nil }

// DefaultViews is unread; see ViewCache.
var DefaultViews = NewViewCache(128)

// GraphCache is empty, like ViewCache: a Checker builds and owns its
// graphs. It, NewGraphCache and DefaultGraphs remain only as the names
// bench/harness.go assigns.
type GraphCache struct{}

// NewGraphCache returns nil; see GraphCache.
func NewGraphCache(int) *GraphCache { return nil }

// DefaultGraphs is unread; see GraphCache.
var DefaultGraphs = NewGraphCache(128)
