// Causal-tracing walkthrough: how a recovery turns into a span tree
// and what the profiler reads off it.
//
// The first half traces a recovery live: a small multi-page workload is
// executed and crashed, then recovered by the partitioned parallel
// engine with a recorder sinking into memory. The event stream that
// comes out is the trace model of DESIGN.md §13 — a trace-begin event
// naming the recovery, an umbrella `recover` span, its coordinator
// phases (`decide`, `partition`, `replay`, `merge`) parented under it,
// and one `component` span per interference component, emitted by
// whichever worker replayed it, carrying the component label, worker
// id, record count, and write width.
//
// The second half analyzes the checked-in trace.json — produced by
// `redosim -trace` over every recovery method plus one supervised
// nested-crash run — the way `redotrace` does: split the stream into
// recoveries, walk the span tree for the critical path (the chain of
// spans the recovery actually waited on), rank the component
// stragglers, and draw the ASCII timeline.
package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"log"
	"os"

	"redotheory/internal/method"
	"redotheory/internal/obs"
	"redotheory/internal/rtrace"
	"redotheory/internal/workload"
)

//go:embed trace.json
var traceJSON []byte

func main() {
	// --- Part 1: trace a recovery live. ---
	pages := workload.Pages(6)
	s0 := workload.InitialState(pages)
	db := method.NewPhysiological(s0)
	for i, op := range workload.SinglePage(24, pages, 7, false) {
		if err := db.Exec(op); err != nil {
			log.Fatal(err)
		}
		if i%3 == 0 {
			db.FlushLog()
		}
	}
	db.FlushLog()
	db.Crash()

	rec := obs.New()
	sink := &obs.MemorySink{}
	rec.SetSink(sink)
	res, err := method.RecoverParallel(db, method.ParallelOptions{Workers: 4, Recorder: rec})
	rec.SetSink(nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered %d ops across %d components; the trace saw:\n",
		len(res.Replayed), res.Plan().Components)

	recs, err := rtrace.Split(sink.Events())
	if err != nil {
		log.Fatal(err)
	}
	live := rtrace.Main(recs)
	live.Walk(func(n *rtrace.Node, depth int) {
		fmt.Printf("  %*s%s", depth*2, "", n.Label())
		if n.Size > 0 {
			fmt.Printf("  [%d records]", n.Size)
		}
		fmt.Printf("  %s\n", n.Dur())
	})

	// --- Part 2: profile the checked-in campaign trace. ---
	var tr rtrace.Trace
	if err := json.Unmarshal(traceJSON, &tr); err != nil {
		log.Fatal(err)
	}
	if err := tr.Check(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nchecked-in trace: %s\n", tr.Source)
	recs, err = rtrace.Split(tr.Events)
	if err != nil {
		log.Fatal(err)
	}
	rtrace.RenderSummary(os.Stdout, recs)
	fmt.Println()

	main_ := rtrace.Main(recs)
	rtrace.RenderCriticalPath(os.Stdout, rtrace.CriticalPath(main_.Roots[0]))
	fmt.Println()
	rtrace.RenderStragglers(os.Stdout, main_, 5)
	fmt.Println()
	rtrace.RenderTimeline(os.Stdout, main_, 48)

	// The same analysis ships as a command: redotrace examples/tracing/trace.json
	// (and -chrome trace-chrome.json exports it for Perfetto / chrome://tracing).
}
