package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// SchemaV1 identifies the metrics report format. Bump on any breaking
// change to the JSON shape; cmd/redostats -check pins it.
const SchemaV1 = "redotheory/metrics/v1"

// Report is the on-disk metrics artifact: what `redosim -metrics`
// writes, `redostats` renders, and the CI schema smoke test validates.
type Report struct {
	Schema      string `json:"schema"`
	GeneratedAt string `json:"generated_at"`
	// Source names the producing command and mode (e.g. "redosim -campaign").
	Source  string               `json:"source"`
	Methods map[string]*Snapshot `json:"methods"`
	// Totals is the merge of every method's snapshot.
	Totals *Snapshot `json:"totals"`
}

// NewReport assembles a report from per-method snapshots, computing
// Totals.
func NewReport(source string, methods map[string]Snapshot) *Report {
	rep := &Report{
		Schema:      SchemaV1,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Source:      source,
		Methods:     make(map[string]*Snapshot, len(methods)),
		Totals:      &Snapshot{},
	}
	for name, s := range methods {
		s := s
		rep.Methods[name] = &s
		rep.Totals.Merge(s)
	}
	return rep
}

// phaseKeys are the duration keys every fully-observed method must
// carry: the six stages of the instrumented recovery pipeline.
var phaseKeys = []string{
	"phase." + string(PhaseScan),
	"phase." + string(PhaseAnalysis),
	"phase." + string(PhaseDecide),
	"phase." + string(PhasePartition),
	"phase." + string(PhaseReplay),
	"phase." + string(PhaseMerge),
}

// requiredCounters must be present (possibly zero-valued) per method.
var requiredCounters = []string{MRedoExamined, MRedoAdmitted, MRedoSkipped}

// Validate checks the report against the v1 schema contract: schema tag,
// timestamp, at least one method, per-method phase-time keys and redo
// counters, and a partition width histogram in the totals. It returns
// every problem found, joined, so a failing CI run names all the missing
// keys at once.
func (r *Report) Validate() error {
	var probs []string
	if r.Schema != SchemaV1 {
		probs = append(probs, fmt.Sprintf("schema is %q, want %q", r.Schema, SchemaV1))
	}
	if r.GeneratedAt == "" {
		probs = append(probs, "generated_at is empty")
	}
	if len(r.Methods) == 0 {
		probs = append(probs, "no methods")
	}
	for _, name := range r.methodNames() {
		s := r.Methods[name]
		if s == nil {
			probs = append(probs, fmt.Sprintf("method %q: nil snapshot", name))
			continue
		}
		for _, c := range requiredCounters {
			if _, ok := s.Counters[c]; !ok {
				probs = append(probs, fmt.Sprintf("method %q: missing counter %q", name, c))
			}
		}
		for _, k := range phaseKeys {
			if _, ok := s.Durations[k]; !ok {
				probs = append(probs, fmt.Sprintf("method %q: missing phase duration %q", name, k))
			}
		}
		probs = append(probs, snapshotSanity(fmt.Sprintf("method %q", name), s)...)
	}
	if r.Totals == nil {
		probs = append(probs, "missing totals")
	} else {
		if _, ok := r.Totals.Samples[MPartitionWidth]; !ok {
			probs = append(probs, fmt.Sprintf("totals: missing sample histogram %q", MPartitionWidth))
		}
		probs = append(probs, snapshotSanity("totals", r.Totals)...)
	}
	if len(probs) != 0 {
		sort.Strings(probs)
		return fmt.Errorf("obs: invalid metrics report:\n  %s", joinLines(probs))
	}
	return nil
}

// snapshotSanity runs the structural histogram checks over every
// histogram in the snapshot and flags negative counters: a live Recorder
// can produce none of these, so each finding identifies a corrupt or
// hand-edited report rather than a schema-version gap.
func snapshotSanity(where string, s *Snapshot) []string {
	var probs []string
	keys := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if s.Counters[k] < 0 {
			probs = append(probs, fmt.Sprintf("%s: counter %q is negative (%d)", where, k, s.Counters[k]))
		}
	}
	for label, hists := range map[string]map[string]HistSnapshot{"duration": s.Durations, "sample": s.Samples} {
		names := make([]string, 0, len(hists))
		for k := range hists {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			h := hists[k]
			for _, p := range h.sanity() {
				probs = append(probs, fmt.Sprintf("%s: %s histogram %q: %s", where, label, k, p))
			}
		}
	}
	return probs
}

func joinLines(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += "\n  "
		}
		out += s
	}
	return out
}

// methodNames returns the report's method names, sorted.
func (r *Report) methodNames() []string {
	out := make([]string, 0, len(r.Methods))
	for m := range r.Methods {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// WriteFile writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: encoding metrics report: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("obs: writing metrics report: %w", err)
	}
	return nil
}

// ReadReportFile loads a metrics report from disk (without validating —
// call Validate for the schema check).
func ReadReportFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("obs: reading metrics report: %w", err)
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("obs: decoding metrics report %s: %w", path, err)
	}
	// JSON "null" (or an empty object) decodes without error into a zero
	// report; reject it here so a truncated-then-padded or wrong file
	// yields a decode error, never a zero-value report that might render.
	if r.Schema == "" && len(r.Methods) == 0 && r.Totals == nil {
		return nil, fmt.Errorf("obs: %s is not a %s report (no schema, methods, or totals)", path, SchemaV1)
	}
	return &r, nil
}

// RenderTable writes the per-method phase-time/selectivity table — the
// cmd/redostats default view. Phase columns show total time spent in the
// phase across all observed recoveries.
func (r *Report) RenderTable(out io.Writer) {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "method\tscan\tanalysis\tdecide\tpartition\treplay\tmerge\tselectivity\tadmit/examined\twidth p50/p99/max")
	for _, name := range r.methodNames() {
		s := r.Methods[name]
		if s == nil {
			continue
		}
		fmt.Fprintf(w, "%s", name)
		for _, k := range phaseKeys {
			fmt.Fprintf(w, "\t%s", fmtTotalNs(s.Duration(k)))
		}
		fmt.Fprintf(w, "\t%.3f", s.RedoSelectivity())
		fmt.Fprintf(w, "\t%d/%d", s.Counter(MRedoAdmitted), s.Counter(MRedoExamined))
		if wh, ok := s.Samples[MPartitionWidth]; ok && wh.Count > 0 {
			fmt.Fprintf(w, "\t%d/%d/%d", wh.P50, wh.P99, wh.Max)
		} else {
			fmt.Fprintf(w, "\t-")
		}
		fmt.Fprintln(w)
	}
	w.Flush()
}

// PhaseTotal is one method's total time in one pipeline phase — a row
// of the redostats -top view over metrics reports.
type PhaseTotal struct {
	Method string
	Phase  string
	Total  time.Duration
}

// SlowestPhases returns every (method, phase) total sorted
// slowest-first.
func (r *Report) SlowestPhases() []PhaseTotal {
	var rows []PhaseTotal
	for _, name := range r.methodNames() {
		s := r.Methods[name]
		if s == nil {
			continue
		}
		for _, k := range phaseKeys {
			rows = append(rows, PhaseTotal{
				Method: name,
				Phase:  strings.TrimPrefix(k, "phase."),
				Total:  time.Duration(s.Duration(k).Sum),
			})
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Total > rows[j].Total })
	return rows
}

// RenderWidths writes the campaign-wide partition width histogram as a
// bucketed bar chart.
func (r *Report) RenderWidths(out io.Writer) {
	if r.Totals == nil {
		return
	}
	wh, ok := r.Totals.Samples[MPartitionWidth]
	if !ok || wh.Count == 0 {
		fmt.Fprintln(out, "partition widths: (no components observed)")
		return
	}
	fmt.Fprintf(out, "partition widths (%d components, p50=%d p99=%d max=%d):\n",
		wh.Count, wh.P50, wh.P99, wh.Max)
	var peak int64
	for _, n := range wh.Buckets {
		if n > peak {
			peak = n
		}
	}
	if peak <= 0 {
		// Corrupt reports can carry a positive count with empty or
		// negative buckets; Validate flags them, rendering just declines.
		fmt.Fprintln(out, "  (histogram buckets are empty or corrupt)")
		return
	}
	for i, n := range wh.Buckets {
		if n <= 0 {
			continue
		}
		lo, hi := bucketBounds(i)
		bar := int(n * 40 / peak)
		if bar == 0 {
			bar = 1
		}
		fmt.Fprintf(out, "  %10s  %6d  %s\n", fmtRange(lo, hi), n, bars(bar))
	}
}

// bucketBounds returns the inclusive value range of bucket i.
func bucketBounds(i int) (int64, int64) {
	if i == 0 {
		return 0, 0
	}
	lo := int64(1) << (i - 1)
	return lo, lo*2 - 1
}

func fmtRange(lo, hi int64) string {
	if lo == hi {
		return fmt.Sprint(lo)
	}
	return fmt.Sprintf("%d–%d", lo, hi)
}

func bars(n int) string {
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}

// fmtTotalNs renders a duration histogram's total as a human duration.
func fmtTotalNs(h HistSnapshot) string {
	return time.Duration(h.Sum).Round(time.Microsecond).String()
}
