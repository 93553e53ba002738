package rtrace

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"redotheory/internal/obs"
)

// span emits a begin/end pair into the synthetic stream builder.
type builder struct {
	events []obs.Event
	seq    uint64
}

func (b *builder) emit(e obs.Event) {
	b.seq++
	e.Seq = b.seq
	b.events = append(b.events, e)
}

func (b *builder) begin(id, parent uint64, phase obs.Phase, ts int64, comp string, worker, size int) {
	b.emit(obs.Event{Type: obs.EvSpanBegin, Phase: phase, Span: id, Parent: parent,
		TS: ts, Comp: comp, Worker: worker, Size: size})
}

func (b *builder) end(id uint64, phase obs.Phase, ts int64) {
	b.emit(obs.Event{Type: obs.EvSpanEnd, Phase: phase, Span: id, TS: ts})
}

// syntheticTrace builds a two-recovery stream: a parallel recovery with
// two interleaved component spans, then a second smaller recovery.
func syntheticTrace() []obs.Event {
	b := &builder{}
	b.emit(obs.Event{Type: obs.EvTraceBegin, Trace: "t1", Detail: "parallel recovery"})
	b.begin(1, 0, obs.PhaseRecover, 0, "", 0, 0)
	b.begin(2, 1, obs.PhaseDecide, 10, "", 0, 0)
	b.end(2, obs.PhaseDecide, 100)
	b.begin(3, 1, obs.PhaseReplay, 100, "", 0, 0)
	b.begin(4, 3, obs.PhaseComponent, 110, "c0", 1, 7)
	b.begin(5, 3, obs.PhaseComponent, 115, "c1", 2, 3)
	b.end(5, obs.PhaseComponent, 200)
	b.end(4, obs.PhaseComponent, 700)
	b.end(3, obs.PhaseReplay, 710)
	b.end(1, obs.PhaseRecover, 800)
	b.emit(obs.Event{Type: obs.EvTraceBegin, Trace: "t2", Detail: "sequential recovery"})
	b.begin(6, 0, obs.PhaseRecover, 900, "", 0, 0)
	b.end(6, obs.PhaseRecover, 950)
	return b.events
}

func TestCheckAcceptsWellFormed(t *testing.T) {
	tr := New("test", syntheticTrace())
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Trace)
		want string
	}{
		{"schema", func(tr *Trace) { tr.Schema = "bogus" }, "schema"},
		{"empty", func(tr *Trace) { tr.Events = nil }, "no events"},
		{"zero-seq", func(tr *Trace) { tr.Events[3].Seq = 0 }, "sequence"},
		{"seq-order", func(tr *Trace) { tr.Events[3].Seq = 2 }, "total order"},
		{"ts-regress", func(tr *Trace) { tr.Events[5].TS = 1 }, "regressed"},
		{"unbalanced", func(tr *Trace) { tr.Events = tr.Events[:len(tr.Events)-1] }, "never ended"},
	}
	for _, tc := range cases {
		tr := New("test", syntheticTrace())
		tc.mut(tr)
		err := tr.Check()
		if err == nil {
			t.Fatalf("%s: corruption not detected", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
	}
	var nilTrace *Trace
	if err := nilTrace.Check(); err == nil {
		t.Fatal("nil trace passed")
	}
}

func TestCheckRejectsDanglingEnd(t *testing.T) {
	b := &builder{}
	b.emit(obs.Event{Type: obs.EvTraceBegin, Trace: "t1"})
	b.end(9, obs.PhaseDecide, 10)
	if err := New("test", b.events).Check(); err == nil {
		t.Fatal("span-end without begin passed")
	}
}

func TestSplitReconstructsForest(t *testing.T) {
	recs, err := Split(syntheticTrace())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("split into %d recoveries, want 2", len(recs))
	}
	main := Main(recs)
	if main.TraceID != "t1" || main.Spans != 5 {
		t.Fatalf("main recovery = %s with %d spans, want t1 with 5", main.TraceID, main.Spans)
	}
	if len(main.Roots) != 1 || main.Roots[0].Phase != obs.PhaseRecover {
		t.Fatalf("main roots = %+v, want one recover root", main.Roots)
	}
	replay := main.Roots[0].Children[1]
	if replay.Phase != obs.PhaseReplay || len(replay.Children) != 2 {
		t.Fatalf("replay node = %+v, want 2 component children", replay)
	}
	c0 := replay.Children[0]
	if c0.Comp != "c0" || c0.Worker != 1 || c0.Size != 7 || c0.Dur() != 590 {
		t.Fatalf("component c0 = %+v", c0)
	}
	if recs[1].TraceID != "t2" || recs[1].Spans != 1 {
		t.Fatalf("second recovery = %+v", recs[1])
	}
}

func TestSplitIgnoresIDlessSpans(t *testing.T) {
	b := &builder{}
	b.emit(obs.Event{Type: obs.EvTraceBegin, Trace: "t1"})
	b.begin(1, 0, obs.PhaseRecover, 0, "", 0, 0)
	// The engines' per-record micro measurements carry no span id.
	b.emit(obs.Event{Type: obs.EvSpanBegin, Phase: obs.PhaseAnalysis})
	b.emit(obs.Event{Type: obs.EvSpanEnd, Phase: obs.PhaseAnalysis})
	b.end(1, obs.PhaseRecover, 50)
	recs, err := Split(b.events)
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Spans != 1 || recs[0].Events != 5 {
		t.Fatalf("spans=%d events=%d, want 1 identified span over 5 events", recs[0].Spans, recs[0].Events)
	}
}

func TestCriticalPathPicksLatestChild(t *testing.T) {
	recs, err := Split(syntheticTrace())
	if err != nil {
		t.Fatal(err)
	}
	path := CriticalPath(Main(recs).Roots[0])
	got := make([]string, len(path))
	for i, n := range path {
		got[i] = n.Label()
	}
	want := []string{"recover", "replay", "component c0 (w1)"}
	if len(got) != len(want) {
		t.Fatalf("critical path %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("critical path %v, want %v", got, want)
		}
	}
	if CriticalPath(nil) != nil {
		t.Fatal("nil root produced a path")
	}
}

func TestStragglersSortSlowestFirst(t *testing.T) {
	recs, err := Split(syntheticTrace())
	if err != nil {
		t.Fatal(err)
	}
	comps := stragglers(Main(recs))
	if len(comps) != 2 {
		t.Fatalf("%d stragglers, want 2", len(comps))
	}
	if comps[0].Comp != "c0" || comps[1].Comp != "c1" {
		t.Fatalf("straggler order %s, %s — want c0 (slowest) first", comps[0].Comp, comps[1].Comp)
	}
}

func TestSlowestSpansSpanRecoveries(t *testing.T) {
	recs, err := Split(syntheticTrace())
	if err != nil {
		t.Fatal(err)
	}
	spans := SlowestSpans(recs)
	if len(spans) != 6 {
		t.Fatalf("%d spans, want 6 across both recoveries", len(spans))
	}
	if spans[0].Phase != obs.PhaseRecover || spans[0].Dur() != 800 {
		t.Fatalf("slowest span = %s %v", spans[0].Label(), spans[0].Dur())
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	recs, err := Split(syntheticTrace())
	if err != nil {
		t.Fatal(err)
	}
	main := Main(recs)
	var buf bytes.Buffer
	RenderSummary(&buf, recs)
	RenderCriticalPath(&buf, CriticalPath(main.Roots[0]))
	RenderStragglers(&buf, main, 8)
	RenderTimeline(&buf, main, 48)
	out := buf.String()
	for _, want := range []string{"t1", "t2", "critical path", "stragglers", "c0", "timeline"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered output lacks %q:\n%s", want, out)
		}
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	tr := New("test", syntheticTrace())
	data, err := ChromeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	var complete int
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" {
			complete++
		}
	}
	if complete != 6 {
		t.Fatalf("%d complete events, want 6 (one per span)", complete)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	tr := New("round-trip", syntheticTrace())
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Check(); err != nil {
		t.Fatal(err)
	}
	if got.Source != "round-trip" || len(got.Events) != len(tr.Events) {
		t.Fatalf("round trip lost data: source=%q events=%d", got.Source, len(got.Events))
	}
}
