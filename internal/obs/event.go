package obs

import (
	"fmt"
	"sync"
	"time"
)

// EventType classifies a recovery event.
type EventType string

const (
	// EvSpanBegin / EvSpanEnd bracket a recovery phase.
	EvSpanBegin EventType = "span-begin"
	EvSpanEnd   EventType = "span-end"
	// EvAdmit is a redo-test admit: the record will be replayed.
	EvAdmit EventType = "redo-admit"
	// EvSkip is a redo-test skip: the record is considered installed.
	// Verdict carries the reason ("checkpointed" or "redo-test-false").
	EvSkip EventType = "redo-skip"
	// EvCacheFlush is a page install (cache → stable storage).
	EvCacheFlush EventType = "cache-flush"
	// EvCacheSteal is an older-version install by the multi-version
	// cache: a blocked page's elder version stolen out to stable storage.
	EvCacheSteal EventType = "cache-steal"
	// EvWALForce is a log force that made records stable.
	EvWALForce EventType = "wal-force"
	// EvDetection is a degraded-recovery integrity detection.
	EvDetection EventType = "detection"
	// EvAttempt is one supervised-recovery attempt finishing (Detail
	// carries the attempt's rung and outcome).
	EvAttempt EventType = "supervise-attempt"
	// EvRung is a degradation-ladder transition (Detail names the rung
	// escalated to).
	EvRung EventType = "supervise-rung"
	// EvTraceBegin opens a causal trace: one per root recovery (Trace
	// carries the trace id, Detail the root's description). Spans that
	// follow, until the next EvTraceBegin, belong to this trace.
	EvTraceBegin EventType = "trace-begin"
)

// Event is one entry of the recovery event stream. Fields are populated
// per type; Seq is stamped by the emitting Recorder and totally orders
// the stream.
type Event struct {
	Seq     uint64        `json:"seq"`
	Type    EventType     `json:"type"`
	Phase   Phase         `json:"phase,omitempty"`   // span events
	LSN     int64         `json:"lsn,omitempty"`     // record/force LSN
	Op      string        `json:"op,omitempty"`      // logged operation (admit/skip)
	Page    string        `json:"page,omitempty"`    // cache events
	Verdict string        `json:"verdict,omitempty"` // redo-test reason
	Detail  string        `json:"detail,omitempty"`  // free-form (detections)
	Dur     time.Duration `json:"dur,omitempty"`     // span-end elapsed

	// Causal-tracing fields (see DESIGN.md §13). TS is nanoseconds since
	// the process trace epoch, stamped by Emit under the emission lock, so
	// it is non-decreasing in Seq order. Span/Parent identify hierarchical
	// spans: ids are allocated per recorder, never reused, and zero on
	// legacy point-measurement span events (the per-record micro spans),
	// which trace analysis ignores.
	TS     int64  `json:"ts,omitempty"`     // ns since trace epoch
	Span   uint64 `json:"span,omitempty"`   // span id (begin/end)
	Parent uint64 `json:"parent,omitempty"` // enclosing span id (begin)
	Trace  string `json:"trace,omitempty"`  // trace id (trace-begin)
	Comp   string `json:"comp,omitempty"`   // component/attempt/batch label
	Worker int    `json:"worker,omitempty"` // 1-based replay worker
	Size   int    `json:"size,omitempty"`   // component records / batch size
	WriteN int    `json:"writes,omitempty"` // component distinct write vars
}

// String renders the event compactly for logs and test failures.
func (e Event) String() string {
	switch e.Type {
	case EvSpanBegin:
		return fmt.Sprintf("#%d %s %s", e.Seq, e.Type, e.Phase)
	case EvSpanEnd:
		return fmt.Sprintf("#%d %s %s (%s)", e.Seq, e.Type, e.Phase, e.Dur)
	case EvAdmit, EvSkip:
		return fmt.Sprintf("#%d %s lsn=%d %s [%s]", e.Seq, e.Type, e.LSN, e.Op, e.Verdict)
	case EvCacheFlush, EvCacheSteal:
		return fmt.Sprintf("#%d %s page=%s lsn=%d", e.Seq, e.Type, e.Page, e.LSN)
	case EvWALForce:
		return fmt.Sprintf("#%d %s through lsn=%d", e.Seq, e.Type, e.LSN)
	default:
		return fmt.Sprintf("#%d %s %s", e.Seq, e.Type, e.Detail)
	}
}

// Sink receives the event stream. Emit is always called with the
// recorder's emission lock held, so implementations see events one at a
// time in sequence order and need no locking of their own against the
// emitter (they do need it against their own readers).
type Sink interface {
	Emit(Event)
}

// MemorySink buffers the stream in memory — the test and export sink.
type MemorySink struct {
	mu     sync.Mutex
	events []Event
}

// Emit appends the event.
func (m *MemorySink) Emit(e Event) {
	m.mu.Lock()
	m.events = append(m.events, e)
	m.mu.Unlock()
}

// Events returns a copy of the buffered stream.
func (m *MemorySink) Events() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Event(nil), m.events...)
}

// Len returns how many events are buffered.
func (m *MemorySink) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.events)
}

// CheckSpanNesting verifies that the stream's span events are
// well-formed and returns the first violation found.
//
// Span events carrying ids (the causal-tracing spans) are checked as a
// forest: a begin's id must be fresh, its parent (when set) must still
// be open, every end must close an open span of the same phase, and
// nothing may remain open at end of stream. Because worker spans carry
// explicit parents, this check holds even when begins and ends from
// concurrent components interleave arbitrarily in the global order.
//
// Id-less span events (the per-record micro measurements and legacy
// synthetic streams) are held to the original stack discipline: every
// span-end matches the most recently opened id-less span. The engines
// emit micro spans only from the sequential scan loop, so the two
// regimes never confuse each other.
func CheckSpanNesting(events []Event) error {
	open := make(map[uint64]Phase)
	openOrder := []uint64{}
	var stack []Phase
	for _, e := range events {
		switch e.Type {
		case EvSpanBegin:
			if e.Span != 0 {
				if _, dup := open[e.Span]; dup {
					return fmt.Errorf("obs: span id %d begun twice (event %s)", e.Span, e)
				}
				if e.Parent != 0 {
					if _, ok := open[e.Parent]; !ok {
						return fmt.Errorf("obs: span id %d begins under parent %d, which is not open (event %s)", e.Span, e.Parent, e)
					}
				}
				open[e.Span] = e.Phase
				openOrder = append(openOrder, e.Span)
				continue
			}
			stack = append(stack, e.Phase)
		case EvSpanEnd:
			if e.Span != 0 {
				ph, ok := open[e.Span]
				if !ok {
					return fmt.Errorf("obs: span-end for id %d, which is not open (event %s)", e.Span, e)
				}
				if ph != e.Phase {
					return fmt.Errorf("obs: span id %d begun as %q but ended as %q (event %s)", e.Span, ph, e.Phase, e)
				}
				delete(open, e.Span)
				continue
			}
			if len(stack) == 0 {
				return fmt.Errorf("obs: span-end %q with no open span (event %s)", e.Phase, e)
			}
			top := stack[len(stack)-1]
			if top != e.Phase {
				return fmt.Errorf("obs: span-end %q while %q is the innermost open span (event %s)", e.Phase, top, e)
			}
			stack = stack[:len(stack)-1]
		}
	}
	if len(stack) != 0 {
		return fmt.Errorf("obs: %d spans never ended (innermost %q)", len(stack), stack[len(stack)-1])
	}
	if len(open) != 0 {
		for i := len(openOrder) - 1; i >= 0; i-- {
			if ph, ok := open[openOrder[i]]; ok {
				return fmt.Errorf("obs: %d identified spans never ended (innermost id %d, phase %q)", len(open), openOrder[i], ph)
			}
		}
	}
	return nil
}
