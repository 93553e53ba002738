// Package core implements Section 4 of the paper: the abstract log model,
// checkpoints, the analysis phase, the redo recovery procedure of
// Figure 6, and the Recovery Invariant together with a checker that audits
// it. The invariant — "the set operations(log) − redo_set induces a prefix
// of the installation graph that explains the state" — is the contract
// between normal operation and recovery; every concrete method in
// internal/method maintains it, and the checker in this package verifies
// that they do.
package core

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"

	"redotheory/internal/conflict"
	"redotheory/internal/dense"
	"redotheory/internal/graph"
	"redotheory/internal/model"
)

// LSN is a log sequence number: the position of a record in the log.
// LSNs increase monotonically with each new record.
type LSN uint64

// Record is a log record: an operation plus optional labels attached by
// the recovery method (Section 4.1 allows records to carry "additional
// information about this operation and its invocation").
type Record struct {
	LSN    LSN
	Op     *model.Op
	Labels map[string]string
	// ids are Op's reads then its writes, interned by the log that
	// appended the record (Log.Append); the first nr are the reads.
	ids []uint32
	nr  int32
	// size caches the simulated wire size, sealed by SetSizeBytes at
	// append/label time so SizeBytes never re-parses the "bytes" label
	// on the hot path.
	size  int32
	sized bool
}

// SetSizeBytes caches the record's simulated wire size. The log
// manager calls it when it attaches the "bytes" label at append time;
// the label stays authoritative for decoded legacy records that never
// pass through SetSizeBytes.
func (r *Record) SetSizeBytes(n int) {
	if n < 0 {
		n = 0
	}
	r.size, r.sized = int32(min(n, math.MaxInt32)), true
}

// SizeBytes returns the simulated wire size recorded by the log
// manager, or 0 when absent. The cached size set at append time is
// preferred; decoded legacy records fall back to parsing the "bytes"
// label per call — without caching the result, so concurrently read
// records stay race-free.
func (r *Record) SizeBytes() int {
	if r.sized {
		return int(r.size)
	}
	n, err := strconv.Atoi(r.Labels["bytes"])
	if err != nil {
		return 0
	}
	return n
}

// Log models the paper's log: a sequence of records, one per logged
// operation, whose order is consistent with the conflict order. In
// practice a log is linear (invocation order); Lemma 1 lets the theory
// treat it as any DAG consistent with the conflict graph, and
// ValidateAgainst checks that consistency.
//
// A log carries its dense view (NewLogView): Append interns each
// record's variables, and a prefix shares the view cut to its records.
//
// A Log holds a sync.Once and is only ever handled by pointer.
type Log struct {
	records []*Record
	nextLSN LSN
	// byOp indexes records by operation id. Recovery scans records by
	// position and never asks, so the index is built by index() on first
	// use; the Once makes that safe on a prefix several goroutines read.
	byOp      map[model.OpID]*Record
	indexOnce sync.Once

	// views[i] is records[i]'s view; the record's ids were minted by
	// in. Ids are minted in log order, and minted[id] is the LSN of the
	// record that first named id, so the ids of a prefix are an initial
	// range.
	views  []RecordView
	in     dense.Interner
	minted []LSN
	// arena is the id chunk Append fills: a record's ids are arena's
	// next slots. A prefix starts without one, so a log never writes a
	// slot another log can reach.
	arena []uint32
}

// arenaChunk is how many ids one arena allocation holds.
const arenaChunk = 4096

// NewLog returns an empty log whose first record will get LSN 1.
func NewLog() *Log {
	return &Log{nextLSN: 1, in: *dense.NewInterner()}
}

// index returns the op-id index, building it from the records on first
// use.
func (l *Log) index() map[model.OpID]*Record {
	l.indexOnce.Do(func() {
		l.byOp = make(map[model.OpID]*Record, len(l.records))
		for _, r := range l.records {
			l.byOp[r.Op.ID()] = r
		}
	})
	return l.byOp
}

// Append adds a record for the operation and returns it, with its view.
// Each operation may be logged once.
func (l *Log) Append(op *model.Op) *Record {
	byOp := l.index()
	if _, dup := byOp[op.ID()]; dup {
		panic(fmt.Sprintf("core: operation %s logged twice", op))
	}
	r := &Record{LSN: l.nextLSN, Op: op}
	l.nextLSN++
	l.intern(r)
	l.records = append(l.records, r)
	l.views = append(l.views, RecordView{r})
	byOp[op.ID()] = r
	return r
}

// intern interns r's variables into the log's interner and lays its
// ids out in the arena (this is where strings stop).
func (l *Log) intern(r *Record) {
	reads, writes := r.Op.Reads(), r.Op.Writes()
	if n := len(reads) + len(writes); cap(l.arena)-len(l.arena) < n {
		l.arena = make([]uint32, 0, max(arenaChunk, n))
	}
	start := len(l.arena)
	for _, x := range reads {
		l.arena = append(l.arena, l.id(x, r.LSN))
	}
	mid := len(l.arena)
writes:
	for _, x := range writes {
		// A read-modify-write names its page twice; reuse the id the
		// read interned rather than hash the name again.
		for k, y := range reads {
			if x == y {
				l.arena = append(l.arena, l.arena[start+k])
				continue writes
			}
		}
		l.arena = append(l.arena, l.id(x, r.LSN))
	}
	end := len(l.arena)
	r.ids, r.nr = l.arena[start:end:end], int32(mid-start)
}

// id returns x's id, minting one for a record at lsn on first sight.
func (l *Log) id(x model.Var, lsn LSN) uint32 {
	id := l.in.Intern(x)
	if int(id) == len(l.minted) {
		l.minted = append(l.minted, lsn)
	}
	return id
}

// Len returns the number of records.
func (l *Log) Len() int { return len(l.records) }

// NextLSN returns the LSN the next appended record will receive.
func (l *Log) NextLSN() LSN { return l.nextLSN }

// Records returns the records in LSN order. The slice is shared; callers
// must not modify it.
func (l *Log) Records() []*Record { return l.records }

// MaxLSN returns the LSN of the last record present, or 0 when the log
// holds no records (empty or fully truncated).
func (l *Log) MaxLSN() LSN {
	if len(l.records) == 0 {
		return 0
	}
	return l.records[len(l.records)-1].LSN
}

// RecordOf returns the record logging the operation, or nil.
func (l *Log) RecordOf(id model.OpID) *Record { return l.index()[id] }

// RecordOfLSN returns the record at the given LSN, or nil when absent.
func (l *Log) RecordOfLSN(lsn LSN) *Record {
	i := sort.Search(len(l.records), func(i int) bool { return l.records[i].LSN >= lsn })
	if i < len(l.records) && l.records[i].LSN == lsn {
		return l.records[i]
	}
	return nil
}

// Operations returns the paper's operations(log): the set of operations
// labelling log records.
func (l *Log) Operations() graph.Set[model.OpID] {
	out := make(graph.Set[model.OpID], len(l.records))
	for _, r := range l.records {
		out.Add(r.Op.ID())
	}
	return out
}

// Ops returns the logged operations in LSN order.
func (l *Log) Ops() []*model.Op {
	out := make([]*model.Op, len(l.records))
	for i, r := range l.records {
		out[i] = r.Op
	}
	return out
}

// Prefix returns a new Log containing the records with LSN ≤ upTo,
// preserving LSNs. It models the stable portion of the log after a
// crash; the returned log continues numbering from the cut, so LSNs are
// never reused even when the surviving portion is empty.
//
// The prefix shares l's records and view up to the cut instead of
// copying them, and its interner is the window of ids its records
// minted. Every shared slice has its capacity clipped to its length, so
// appending to the prefix (wal.Crash makes one the live log)
// reallocates rather than overwriting l's tail, and appends to l land
// past the prefix's end, invisible to it. The first new variable either
// log interns after the cut copies the id table (dense.Interner.Window).
func (l *Log) Prefix(upTo LSN) *Log {
	k := sort.Search(len(l.records), func(i int) bool { return l.records[i].LSN > upTo })
	n := sort.Search(len(l.minted), func(i int) bool { return l.minted[i] > upTo })
	p := &Log{
		records: l.records[:k:k],
		nextLSN: upTo + 1,
		views:   l.views[:k:k],
		in:      l.in.Window(n),
		minted:  l.minted[:n:n],
	}
	if l.nextLSN < p.nextLSN {
		p.nextLSN = l.nextLSN
	}
	if p.nextLSN < 1 {
		p.nextLSN = 1
	}
	return p
}

// TruncateBefore drops the records with LSN < before, preserving the
// LSNs of the rest, and returns how many were dropped. Checkpoints use
// this to bound the log: the dropped operations are installed, and the
// caller must fold their effects into its recovery base state first.
// The view drops the same records but keeps their ids, so ids never
// change under a log.
func (l *Log) TruncateBefore(before LSN) int {
	byOp := l.index()
	cut := 0
	for cut < len(l.records) && l.records[cut].LSN < before {
		delete(byOp, l.records[cut].Op.ID())
		cut++
	}
	l.records = l.records[cut:]
	l.views = l.views[cut:]
	return cut
}

// ConflictGraph builds the conflict graph generated by the logged
// operations in log order. By Lemma 1 the log order — any order
// consistent with the conflict order — regenerates the execution's
// conflict graph restricted to the logged operations.
func (l *Log) ConflictGraph() *conflict.Graph {
	g := conflict.New()
	for _, r := range l.records {
		g.Append(r.Op)
	}
	return g
}

// ValidateAgainst checks the two log properties of Section 4.1 against a
// conflict graph: the logged operations are exactly the graph's
// operations, and whenever the conflict graph orders two operations the
// log orders them the same way.
func (l *Log) ValidateAgainst(cg *conflict.Graph) error {
	if len(l.records) != cg.NumOps() {
		return fmt.Errorf("core: log has %d operations, conflict graph has %d", len(l.records), cg.NumOps())
	}
	pos := make(map[model.OpID]int, len(l.records))
	for i, r := range l.records {
		if !cg.HasOp(r.Op.ID()) {
			return fmt.Errorf("core: logged operation %s is not in the conflict graph", r.Op)
		}
		pos[r.Op.ID()] = i
	}
	dag := cg.DAG()
	for _, u := range dag.Nodes() {
		for _, v := range dag.Succs(u) {
			if pos[u] >= pos[v] {
				return fmt.Errorf("core: log orders %d after %d, violating the conflict edge %d→%d", u, v, u, v)
			}
		}
	}
	return nil
}
