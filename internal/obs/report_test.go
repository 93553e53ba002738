package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fullSnapshot builds a snapshot carrying every key Validate requires.
func fullSnapshot() Snapshot {
	r := New()
	r.Add(MRedoExamined, 8)
	r.Add(MRedoAdmitted, 3)
	r.Add(MRedoSkipped, 5)
	for _, p := range []Phase{PhaseScan, PhaseAnalysis, PhaseDecide, PhasePartition, PhaseReplay, PhaseMerge} {
		r.ObserveDuration("phase."+string(p), time.Microsecond)
	}
	r.Observe(MPartitionWidth, 2)
	r.Observe(MPartitionWidth, 5)
	return r.Snapshot()
}

func TestReportRoundTripAndValidate(t *testing.T) {
	rep := NewReport("test", map[string]Snapshot{"physiological": fullSnapshot(), "genlsn": fullSnapshot()})
	if err := rep.Validate(); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	if got := rep.Totals.Counter(MRedoExamined); got != 16 {
		t.Fatalf("totals examined = %d, want 16", got)
	}

	path := filepath.Join(t.TempDir(), "metrics.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReportFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped report rejected: %v", err)
	}
	if len(back.Methods) != 2 {
		t.Fatalf("round trip lost methods: %v", back.MethodNames())
	}
}

func TestReportValidateCatchesMissingKeys(t *testing.T) {
	// Missing phase durations and counters.
	bare := New()
	bare.Add(MRedoExamined, 1)
	rep := NewReport("test", map[string]Snapshot{"m": bare.Snapshot()})
	err := rep.Validate()
	if err == nil {
		t.Fatal("bare snapshot passed validation")
	}
	for _, want := range []string{"phase.decide", "phase.merge", MRedoAdmitted, MPartitionWidth} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("validation error does not name %q:\n%v", want, err)
		}
	}

	// Wrong schema and no methods.
	empty := &Report{Schema: "bogus"}
	err = empty.Validate()
	if err == nil || !strings.Contains(err.Error(), "schema") || !strings.Contains(err.Error(), "no methods") {
		t.Fatalf("empty report error = %v", err)
	}
}

func TestRenderTableAndWidths(t *testing.T) {
	rep := NewReport("test", map[string]Snapshot{"genlsn": fullSnapshot()})
	var tbl, widths strings.Builder
	rep.RenderTable(&tbl)
	rep.RenderWidths(&widths)
	for _, want := range []string{"genlsn", "selectivity", "0.375"} {
		if !strings.Contains(tbl.String(), want) {
			t.Fatalf("table missing %q:\n%s", want, tbl.String())
		}
	}
	if !strings.Contains(widths.String(), "partition widths (2 components") {
		t.Fatalf("widths rendering:\n%s", widths.String())
	}
	// Empty totals render a placeholder, not a panic.
	var none strings.Builder
	(&Report{Totals: &Snapshot{}}).RenderWidths(&none)
	if !strings.Contains(none.String(), "no components") {
		t.Fatalf("empty widths rendering: %q", none.String())
	}
}

// TestCorruptReportInputs feeds the redostats -check pipeline
// (ReadReportFile then Validate) every class of malformed input the tool
// must reject: each case yields a clear error — never a panic and never
// a zero-value report that would pass validation or render garbage.
func TestCorruptReportInputs(t *testing.T) {
	valid := func(mutate func(r *Report)) string {
		rep := NewReport("test", map[string]Snapshot{"genlsn": fullSnapshot()})
		mutate(rep)
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	cases := []struct {
		name string
		data string
		want string // substring of the error
	}{
		{"empty file", "", "decoding"},
		{"truncated json", `{"schema": "redotheory/metrics/v1", "methods": {"genl`, "decoding"},
		{"json null", "null", "not a"},
		{"empty object", "{}", "not a"},
		{"json array", "[]", "decoding"},
		{"json string", `"hi"`, "decoding"},
		{"wrong type for methods", `{"schema":"redotheory/metrics/v1","methods":42}`, "decoding"},
		{"wrong schema", valid(func(r *Report) { r.Schema = "bogus/v9" }), "schema"},
		{"null method snapshot", valid(func(r *Report) { r.Methods["genlsn"] = nil }), "nil snapshot"},
		{"missing totals", valid(func(r *Report) { r.Totals = nil }), "missing totals"},
		{"negative counter", valid(func(r *Report) { r.Totals.Counters[MRedoExamined] = -4 }), "negative"},
		{"negative bucket", valid(func(r *Report) {
			h := r.Totals.Samples[MPartitionWidth]
			h.Buckets[1] = -7
			r.Totals.Samples[MPartitionWidth] = h
		}), "negative count"},
		{"bucket sum mismatch", valid(func(r *Report) {
			h := r.Totals.Samples[MPartitionWidth]
			h.Count += 5
			r.Totals.Samples[MPartitionWidth] = h
		}), "count says"},
		{"too many buckets", valid(func(r *Report) {
			h := r.Totals.Samples[MPartitionWidth]
			h.Buckets = append(h.Buckets, make([]int64, 70)...)
			r.Totals.Samples[MPartitionWidth] = h
		}), "max 64"},
		{"min above max", valid(func(r *Report) {
			h := r.Totals.Samples[MPartitionWidth]
			h.Min, h.Max = 99, 1
			r.Totals.Samples[MPartitionWidth] = h
		}), "exceeds max"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "metrics.json")
			if err := os.WriteFile(path, []byte(c.data), 0o644); err != nil {
				t.Fatal(err)
			}
			rep, err := ReadReportFile(path)
			if err == nil {
				err = rep.Validate()
			}
			if err == nil {
				t.Fatalf("corrupt input passed the check pipeline: %q", c.data)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error does not mention %q:\n%v", c.want, err)
			}
		})
	}
}

// TestRenderCorruptWidthsDoesNotPanic feeds RenderWidths histograms that
// fail validation — rendering must decline gracefully, never slice-panic
// on negative bar widths.
func TestRenderCorruptWidthsDoesNotPanic(t *testing.T) {
	for _, h := range []HistSnapshot{
		{Count: 5},                           // count, no buckets
		{Count: 5, Buckets: []int64{-3, -2}}, // all-negative buckets
		{Count: 5, Min: 1, Max: 9, Buckets: []int64{0, -1, 6}}, // mixed sign
	} {
		rep := &Report{Totals: &Snapshot{Samples: map[string]HistSnapshot{MPartitionWidth: h}}}
		var sb strings.Builder
		rep.RenderWidths(&sb) // must not panic
		if sb.Len() == 0 {
			t.Fatalf("rendering %+v produced no output", h)
		}
	}
}

func TestBucketBounds(t *testing.T) {
	cases := []struct{ v, lo, hi int64 }{{0, 0, 0}, {1, 1, 1}, {2, 2, 3}, {3, 2, 3}, {4, 4, 7}, {1000, 512, 1023}}
	for _, c := range cases {
		b := bucketOf(c.v)
		lo, hi := bucketBounds(b)
		if c.v < lo || c.v > hi || lo != c.lo || hi != c.hi {
			t.Fatalf("value %d → bucket %d [%d,%d], want [%d,%d]", c.v, b, lo, hi, c.lo, c.hi)
		}
	}
}
