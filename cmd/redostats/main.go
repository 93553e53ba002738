// Command redostats renders the telemetry reports written by
// `redosim -metrics` (and any other producer of the v1 metrics schema):
//
//	redostats out.json           # per-method phase-time/selectivity table
//	redostats -widths out.json   # + the partition width histogram
//	redostats -check out.json    # validate the schema; exit 1 on any gap
//	redostats -top 10 out.json   # slowest (method, phase) totals
//	redostats -top 10 trace.json # slowest spans of a causal trace
//
// The table shows, per recovery method, the total time spent in each
// phase of the instrumented pipeline (scan, analysis, decide, partition,
// replay, merge), the redo selectivity (admitted/examined), the
// partition component width percentiles, and the memoization-cache hit
// rates.
//
// The -top mode accepts either artifact family and routes on the
// embedded schema tag: a redotheory/metrics/v1 report yields the
// slowest per-method phase totals, a redotheory/trace/v1 causal trace
// yields the slowest spans across its recoveries. Both paths validate
// the artifact before rendering and exit 1 on schema gaps.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"redotheory/internal/obs"
	"redotheory/internal/rtrace"
)

func main() {
	check := flag.Bool("check", false, "validate the report against the v1 schema and exit (0 ok, 1 invalid)")
	widths := flag.Bool("widths", false, "also render the partition width histogram")
	top := flag.Int("top", 0, "render the K slowest phase totals (metrics report) or spans (trace artifact) instead of the table")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: redostats [-check] [-widths] [-top K] report.json")
		os.Exit(2)
	}
	path := flag.Arg(0)

	if *top > 0 {
		renderTop(path, *top)
		return
	}

	rep, err := obs.ReadReportFile(path)
	if err != nil {
		fatal(err)
	}
	if *check {
		if err := rep.Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "redostats: %s: %v\n", path, err)
			os.Exit(1)
		}
		fmt.Printf("%s: valid %s report (%d methods)\n", path, rep.Schema, len(rep.Methods))
		return
	}

	// Rendering a structurally corrupt report produces garbage tables, so
	// the render path validates too and names the schema gaps instead.
	if err := rep.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "redostats: %s: refusing to render an invalid report: %v\n", path, err)
		os.Exit(1)
	}

	fmt.Printf("source: %s  generated: %s\n\n", rep.Source, rep.GeneratedAt)
	rep.RenderTable(os.Stdout)
	if *widths {
		fmt.Println()
		rep.RenderWidths(os.Stdout)
	}
}

// renderTop routes the -top view on the artifact's schema tag: metrics
// reports list the slowest (method, phase) totals, causal traces list
// the slowest spans. Either way the artifact is validated first.
func renderTop(path string, k int) {
	switch schema := sniffSchema(path); schema {
	case rtrace.SchemaV1:
		t, err := rtrace.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		if err := t.Check(); err != nil {
			fmt.Fprintf(os.Stderr, "redostats: %s: refusing to render an invalid trace: %v\n", path, err)
			os.Exit(1)
		}
		recs, err := rtrace.Split(t.Events)
		if err != nil {
			fatal(err)
		}
		spans := rtrace.SlowestSpans(recs)
		if len(spans) == 0 {
			fmt.Println("top spans: (trace carries no spans)")
			return
		}
		if k > len(spans) {
			k = len(spans)
		}
		fmt.Printf("top %d of %d spans:\n", k, len(spans))
		for _, n := range spans[:k] {
			fmt.Printf("  %-28s %12s\n", n.Label(), n.Dur())
		}
	case obs.SchemaV1:
		rep, err := obs.ReadReportFile(path)
		if err != nil {
			fatal(err)
		}
		if err := rep.Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "redostats: %s: refusing to render an invalid report: %v\n", path, err)
			os.Exit(1)
		}
		rows := rep.SlowestPhases()
		if len(rows) == 0 {
			fmt.Println("top phases: (report carries no methods)")
			return
		}
		if k > len(rows) {
			k = len(rows)
		}
		fmt.Printf("top %d of %d (method, phase) totals:\n", k, len(rows))
		for _, r := range rows[:k] {
			fmt.Printf("  %-20s %-10s %12s\n", r.Method, r.Phase, r.Total)
		}
	default:
		fmt.Fprintf(os.Stderr, "redostats: %s: schema %q is neither %q nor %q\n",
			path, schema, obs.SchemaV1, rtrace.SchemaV1)
		os.Exit(1)
	}
}

// sniffSchema reads just the artifact's schema tag so -top can route
// between the metrics-report and trace renderers.
func sniffSchema(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var probe struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	return probe.Schema
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "redostats: %v\n", err)
	os.Exit(1)
}
