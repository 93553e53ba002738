package obs

import (
	"sync"
	"testing"
	"time"
)

func TestNilRecorderIsFree(t *testing.T) {
	var r *Recorder
	r.Inc("x")
	r.Add("x", 5)
	r.SetGauge("g", 1)
	r.Observe("s", 2)
	r.ObserveDuration("d", time.Second)
	r.Emit(Event{Type: EvAdmit})
	r.SetSink(&MemorySink{})
	sp := r.StartSpan(PhaseDecide)
	if d := sp.End(); d != 0 {
		t.Fatalf("nil span elapsed %v, want 0", d)
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Durations) != 0 {
		t.Fatalf("nil recorder snapshot not empty: %+v", s)
	}
}

func TestCountersAndGauges(t *testing.T) {
	r := New()
	r.Inc(MRedoAdmitted)
	r.Add(MRedoAdmitted, 4)
	r.SetGauge(GPartitionLargest, 7)
	r.SetGauge(GPartitionLargest, 3)
	s := r.Snapshot()
	if got := s.Counter(MRedoAdmitted); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if got := s.Gauges[GPartitionLargest]; got != 3 {
		t.Fatalf("gauge = %d, want 3 (last write wins)", got)
	}
}

// TestConcurrentCounters exercises one recorder from many goroutines —
// the campaign worker-pool sharing pattern. Run under -race.
func TestConcurrentCounters(t *testing.T) {
	r := New()
	const workers, per = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Inc(MReplayRecords)
				r.Observe(MPartitionWidth, int64(i%17))
				r.ObserveDuration("phase.replay", time.Duration(i))
				r.SetGauge(GPartitionLargest, int64(w))
			}
		}(w)
	}
	wg.Wait()
	s := r.Snapshot()
	if got := s.Counter(MReplayRecords); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := s.Samples[MPartitionWidth].Count; got != workers*per {
		t.Fatalf("sample count = %d, want %d", got, workers*per)
	}
	if got := s.Duration("phase.replay").Count; got != workers*per {
		t.Fatalf("duration count = %d, want %d", got, workers*per)
	}
}

func TestHistPercentilesAndMerge(t *testing.T) {
	h := newHist()
	for v := int64(1); v <= 100; v++ {
		h.Observe(v)
	}
	s := h.snapshot()
	if s.Count != 100 || s.Min != 1 || s.Max != 100 {
		t.Fatalf("snapshot = %+v", s)
	}
	// p50 of 1..100 lands in bucket [32,63]; the estimate is the bucket's
	// lower bound.
	if s.P50 < 16 || s.P50 > 64 {
		t.Fatalf("p50 = %d, want within a bucket of 50", s.P50)
	}
	if s.P99 < 64 || s.P99 > 100 {
		t.Fatalf("p99 = %d, want within a bucket of 99", s.P99)
	}

	h2 := newHist()
	for i := 0; i < 1000; i++ {
		h2.Observe(1000)
	}
	s2 := h2.snapshot()
	s.Merge(s2)
	if s.Count != 1100 || s.Max != 1000 || s.Min != 1 {
		t.Fatalf("merged = %+v", s)
	}
	// After the merge the mass sits at 1000.
	if s.P99 < 512 || s.P99 > 1000 {
		t.Fatalf("merged p99 = %d", s.P99)
	}
	var empty HistSnapshot
	if empty.percentile(0.5) != 0 {
		t.Fatal("empty histogram percentile must be 0")
	}
	empty.Merge(s)
	if empty.Count != s.Count {
		t.Fatalf("merge into empty lost data: %+v", empty)
	}
}

func TestSnapshotMerge(t *testing.T) {
	a, b := New(), New()
	a.Add(MRedoExamined, 10)
	a.Add(MRedoAdmitted, 4)
	b.Add(MRedoExamined, 10)
	b.Add(MRedoAdmitted, 1)
	b.Observe(MPartitionWidth, 3)
	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(sb)
	if got := sa.Counter(MRedoExamined); got != 20 {
		t.Fatalf("merged examined = %d", got)
	}
	if got := sa.RedoSelectivity(); got != 0.25 {
		t.Fatalf("merged selectivity = %v, want 0.25", got)
	}
	if got := sa.Samples[MPartitionWidth].Count; got != 1 {
		t.Fatalf("merged width count = %d", got)
	}
	var zero Snapshot
	if zero.RedoSelectivity() != 0 {
		t.Fatal("empty snapshot selectivity must be 0")
	}
}

func TestSpanRecordsDuration(t *testing.T) {
	r := New()
	sp := r.StartSpan(PhaseDecide)
	time.Sleep(time.Millisecond)
	d := sp.End()
	if d <= 0 {
		t.Fatalf("elapsed = %v", d)
	}
	h := r.Snapshot().Duration("phase.decide")
	if h.Count != 1 || h.Sum < int64(time.Millisecond/2) {
		t.Fatalf("phase.decide hist = %+v", h)
	}
}

func TestSinkOrderingAndNesting(t *testing.T) {
	r := New()
	sink := &MemorySink{}
	r.SetSink(sink)
	outer := r.StartSpan(PhaseRecover)
	inner := r.StartSpan(PhaseAnalysis)
	r.Emit(Event{Type: EvAdmit, LSN: 3, Op: "op", Verdict: "admit"})
	inner.End()
	outer.End()

	events := sink.Events()
	if len(events) != 5 {
		t.Fatalf("got %d events: %v", len(events), events)
	}
	for i, e := range events {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d: %v", i, e.Seq, events)
		}
	}
	if err := CheckSpanNesting(events); err != nil {
		t.Fatal(err)
	}

	// Misnested stream: ends in the wrong order.
	bad := []Event{
		{Type: EvSpanBegin, Phase: PhaseDecide},
		{Type: EvSpanBegin, Phase: PhaseAnalysis},
		{Type: EvSpanEnd, Phase: PhaseDecide},
	}
	if err := CheckSpanNesting(bad); err == nil {
		t.Fatal("misnested spans not detected")
	}
	if err := CheckSpanNesting([]Event{{Type: EvSpanEnd, Phase: PhaseScan}}); err == nil {
		t.Fatal("stray span-end not detected")
	}
	if err := CheckSpanNesting([]Event{{Type: EvSpanBegin, Phase: PhaseScan}}); err == nil {
		t.Fatal("unclosed span not detected")
	}
}

func TestEventString(t *testing.T) {
	for _, e := range []Event{
		{Seq: 1, Type: EvSpanBegin, Phase: PhaseScan},
		{Seq: 2, Type: EvSpanEnd, Phase: PhaseScan, Dur: time.Millisecond},
		{Seq: 3, Type: EvAdmit, LSN: 9, Op: "w(x)", Verdict: "admit"},
		{Seq: 4, Type: EvCacheFlush, Page: "p1", LSN: 4},
		{Seq: 5, Type: EvWALForce, LSN: 12},
		{Seq: 6, Type: EvDetection, Detail: "corrupt-page: p2"},
	} {
		if e.String() == "" {
			t.Fatalf("empty rendering for %+v", e)
		}
	}
}
