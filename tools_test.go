package redotheory_test

// End-to-end tests of the command-line tools: build each binary once,
// then drive it the way EXPERIMENTS.md and the README do.

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

var buildOnce sync.Once
var binDir string
var buildErr error

func builtTool(t *testing.T, name string) string {
	t.Helper()
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "redotheory-bin")
		if buildErr != nil {
			return
		}
		for _, tool := range []string{"redograph", "redosim", "redocheck", "redofuzz", "redotrace", "redostats", "redoserve"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(binDir, tool), "./cmd/"+tool)
			out, err := cmd.CombinedOutput()
			if err != nil {
				buildErr = err
				t.Logf("build %s: %s", tool, out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatalf("building tools: %v", buildErr)
	}
	return filepath.Join(binDir, name)
}

func runTool(t *testing.T, name string, stdin string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(builtTool(t, name), args...)
	if stdin != "" {
		cmd.Stdin = strings.NewReader(stdin)
	}
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%s: %v\n%s", name, err, buf.String())
	}
	return buf.String(), code
}

func TestRedographFigures(t *testing.T) {
	out, code := runTool(t, "redograph", "", "-figure", "5")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{
		"prefix counts: installation graph 5, conflict graph 4",
		"dropped:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("figure 5 output missing %q", want)
		}
	}
	out, code = runTool(t, "redograph", "", "-figure", "8", "-dot")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{
		"write graph (same-variable writers collapsed):",
		"legal install sequence:",
		"digraph writegraph",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("figure 8 output missing %q", want)
		}
	}
	out, code = runTool(t, "redograph", "", "-scenario", "H,J")
	if code != 0 || !strings.Contains(out, "Section 5 (H,J)") {
		t.Errorf("-scenario lookup failed (exit %d)", code)
	}
	if _, code := runTool(t, "redograph", "", "-scenario", "nonexistent"); code == 0 {
		t.Error("unknown scenario accepted")
	}
	out, code = runTool(t, "redograph", "", "-all")
	if code != 0 || !strings.Contains(out, "Scenario 1") || !strings.Contains(out, "Figure 8") {
		t.Errorf("-all output incomplete (exit %d)", code)
	}
	if out, code = runTool(t, "redograph", "", "-figure", "99"); code == 0 {
		t.Errorf("unknown figure accepted:\n%s", out)
	}
}

func TestRedosimMatrix(t *testing.T) {
	out, code := runTool(t, "redosim", "", "-matrix", "-ops", "15", "-pages", "5")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "RESULT: all methods recovered") {
		t.Errorf("matrix did not pass:\n%s", out)
	}
	for _, m := range []string{"logical", "physical", "physiological", "physiological+dpt", "genlsn", "genlsn+mv"} {
		if !strings.Contains(out, m) {
			t.Errorf("matrix missing method %s", m)
		}
	}
}

func TestRedosimSplitLog(t *testing.T) {
	out, code := runTool(t, "redosim", "", "-experiment", "splitlog")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "ratio") || !strings.Contains(out, "Section 6.4") {
		t.Errorf("splitlog output unexpected:\n%s", out)
	}
}

func TestRedosimWALFault(t *testing.T) {
	out, code := runTool(t, "redosim", "", "-walfault", "-ops", "25", "-pages", "4")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "the checker catches write-ahead-log violations") {
		t.Errorf("walfault output unexpected:\n%s", out)
	}
}

func TestRedosimSingleRun(t *testing.T) {
	out, code := runTool(t, "redosim", "", "-method", "genlsn", "-ops", "20", "-crash", "12")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{"recovered      true", "invariant ok   true"} {
		if !strings.Contains(out, want) {
			t.Errorf("single run missing %q:\n%s", want, out)
		}
	}
	if _, code := runTool(t, "redosim", "", "-method", "bogus"); code == 0 {
		t.Error("unknown method accepted")
	}
}

func TestRedocheckRoundTrip(t *testing.T) {
	example, code := runTool(t, "redocheck", "", "-example")
	if code != 0 {
		t.Fatalf("-example failed")
	}
	out, code := runTool(t, "redocheck", example, "-v", "-")
	if code != 0 {
		t.Fatalf("healthy trace rejected (exit %d):\n%s", code, out)
	}
	if !strings.Contains(out, "HOLDS") {
		t.Errorf("output = %s", out)
	}
	// A violating trace exits 1 with a diagnosis.
	bad := strings.Replace(example, `"installed": [2]`, `"installed": [1, 2]`, 1)
	// Installing both with only x in the state: y missing but exposed.
	out, code = runTool(t, "redocheck", bad, "-")
	if code != 1 {
		t.Fatalf("violating trace exit = %d:\n%s", code, out)
	}
	if !strings.Contains(out, "VIOLATED") {
		t.Errorf("output = %s", out)
	}
	// Garbage input is a usage error.
	if _, code := runTool(t, "redocheck", "not json", "-"); code == 0 {
		t.Error("garbage accepted")
	}
}

func TestRedosimEmitTracePipesIntoRedocheck(t *testing.T) {
	traceJSON, code := runTool(t, "redosim", "", "-emit-trace", "-method", "genlsn", "-ops", "20", "-crash", "14")
	if code != 0 {
		t.Fatalf("emit-trace exit %d:\n%s", code, traceJSON)
	}
	out, code := runTool(t, "redocheck", traceJSON, "-")
	if code != 0 || !strings.Contains(out, "HOLDS") {
		t.Errorf("piped trace verdict (exit %d): %s", code, out)
	}
	if _, code := runTool(t, "redosim", "", "-emit-trace"); code == 0 {
		t.Error("emit-trace without -method/-crash accepted")
	}
}

func TestRedofuzzSmokeGrid(t *testing.T) {
	out, code := runTool(t, "redofuzz", "", "-seeds", "1", "-histories", "1", "-ops", "8")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{"all cells agree", "partition shapes", "redo-set sizes"} {
		if !strings.Contains(out, want) {
			t.Errorf("fuzz output missing %q:\n%s", want, out)
		}
	}
}

func TestRedofuzzReproReplay(t *testing.T) {
	// The checked-in walkthrough artifact replays deterministically: the
	// recorded disagreement came from a test-only planted bug, so the
	// real oracle passes the cell — twice, with identical output.
	path := filepath.Join("examples", "fuzzrepro", "repro.json")
	first, code := runTool(t, "redofuzz", "", "-repro", path)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, first)
	}
	if !strings.Contains(first, "cell passes") {
		t.Errorf("replay output unexpected:\n%s", first)
	}
	second, code := runTool(t, "redofuzz", "", "-repro", path)
	if code != 0 || first != second {
		t.Errorf("replay is not deterministic:\n%s\nvs\n%s", first, second)
	}

	// A malformed artifact is a usage error, not a pass.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"bogus"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, code := runTool(t, "redofuzz", "", "-repro", bad); code == 0 {
		t.Errorf("malformed artifact accepted:\n%s", out)
	}
}

func TestRedosimTracePipesIntoRedotrace(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.json")
	out, code := runTool(t, "redosim", "", "-trace", trace, "-ops", "16", "-pages", "4")
	if code != 0 {
		t.Fatalf("redosim -trace exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "trace written to") {
		t.Errorf("redosim -trace output unexpected:\n%s", out)
	}

	out, code = runTool(t, "redotrace", "", "-check", trace)
	if code != 0 || !strings.Contains(out, "valid redotheory/trace/v1 trace") {
		t.Fatalf("redotrace -check verdict (exit %d): %s", code, out)
	}
	out, code = runTool(t, "redotrace", "", trace)
	if code != 0 {
		t.Fatalf("redotrace exit %d:\n%s", code, out)
	}
	for _, want := range []string{"critical path", "stragglers", "timeline", "supervised"} {
		if !strings.Contains(out, want) {
			t.Errorf("profile output missing %q:\n%s", want, out)
		}
	}

	chrome := filepath.Join(dir, "chrome.json")
	out, code = runTool(t, "redotrace", "", "-chrome", chrome, trace)
	if code != 0 || !strings.Contains(out, "Chrome trace-event JSON") {
		t.Fatalf("redotrace -chrome (exit %d): %s", code, out)
	}
	data, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("chrome export carries no events")
	}

	// A malformed trace is rejected in every mode.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"bogus","events":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, code := runTool(t, "redotrace", "", "-check", bad); code == 0 {
		t.Errorf("malformed trace accepted:\n%s", out)
	}
}

func TestRedotraceCheckedInExample(t *testing.T) {
	// The walkthrough trace under examples/ stays loadable and profilable.
	path := filepath.Join("examples", "tracing", "trace.json")
	out, code := runTool(t, "redotrace", "", "-check", path)
	if code != 0 || !strings.Contains(out, "valid redotheory/trace/v1 trace") {
		t.Fatalf("checked-in trace invalid (exit %d): %s", code, out)
	}
	out, code = runTool(t, "redotrace", "", "-top", "5", "-width", "64", path)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{"critical path", "stragglers", "timeline", "component"} {
		if !strings.Contains(out, want) {
			t.Errorf("profile output missing %q:\n%s", want, out)
		}
	}
}

func TestRedostatsTopRoutesOnSchema(t *testing.T) {
	dir := t.TempDir()

	// Trace input: slowest spans.
	trace := filepath.Join("examples", "tracing", "trace.json")
	out, code := runTool(t, "redostats", "", "-top", "5", trace)
	if code != 0 || !strings.Contains(out, "spans:") {
		t.Fatalf("trace -top verdict (exit %d): %s", code, out)
	}

	// Metrics input: slowest (method, phase) totals.
	metrics := filepath.Join(dir, "metrics.json")
	if out, code := runTool(t, "redosim", "", "-matrix", "-ops", "12", "-pages", "4", "-metrics", metrics); code != 0 {
		t.Fatalf("redosim -metrics exit %d:\n%s", code, out)
	}
	out, code = runTool(t, "redostats", "", "-top", "5", metrics)
	if code != 0 || !strings.Contains(out, "(method, phase) totals:") {
		t.Fatalf("metrics -top verdict (exit %d): %s", code, out)
	}

	// Unknown schema: exit 1 naming both families.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"bogus"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code = runTool(t, "redostats", "", "-top", "5", bad)
	if code == 0 {
		t.Errorf("unknown schema accepted:\n%s", out)
	}
}

// TestRedoserveBenchReport drives the availability benchmark twice on a
// tiny fixture: the report carries BENCH_serve.json's key set, the
// second run inherits exactly the first run's trend, and the exit code
// follows the verdict.
func TestRedoserveBenchReport(t *testing.T) {
	keys := func(path string) (map[string]json.RawMessage, []string) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		var ks []string
		for k := range m {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return m, ks
	}
	_, want := keys("BENCH_serve.json")

	dir := t.TempDir()
	run := func(name string, extra ...string) map[string]json.RawMessage {
		t.Helper()
		path := filepath.Join(dir, name)
		args := append([]string{"-bench", "-ops", "120", "-pages", "16", "-rounds", "4",
			"-clients", "2", "-requests", "12", "-trials", "2", "-out", path}, extra...)
		out, code := runTool(t, "redoserve", "", args...)
		rep, got := keys(path)
		var verdict string
		if err := json.Unmarshal(rep["verdict"], &verdict); err != nil {
			t.Fatal(err)
		}
		if ok := strings.HasPrefix(verdict, "ok"); ok != (code == 0) {
			t.Errorf("exit %d with verdict %q:\n%s", code, verdict, out)
		}
		if len(extra) == 0 {
			got = append(got, "history") // omitted when nothing is carried forward
			sort.Strings(got)
		}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s keys %v, want BENCH_serve.json's %v", name, got, want)
		}
		return rep
	}
	first := run("first.json")
	if _, ok := first["history"]; ok {
		t.Errorf("first run without -baseline carries a history")
	}
	second := run("second.json", "-baseline", filepath.Join(dir, "first.json"))

	type trend struct {
		GeneratedAt string  `json:"generated_at"`
		NumCPU      int     `json:"num_cpu"`
		GoMaxProcs  int     `json:"gomaxprocs"`
		TTFRP99Ns   int64   `json:"ttfr_p99_ns"`
		OfflineNs   int64   `json:"offline_recovery_ns"`
		Ratio       float64 `json:"ratio_p99_vs_offline"`
	}
	var history []trend
	if err := json.Unmarshal(second["history"], &history); err != nil {
		t.Fatal(err)
	}
	var firstRep struct {
		trend
		TTFR struct {
			P99Ns int64 `json:"p99_ns"`
		} `json:"ttfr"`
	}
	data, err := os.ReadFile(filepath.Join(dir, "first.json"))
	if err == nil {
		err = json.Unmarshal(data, &firstRep)
	}
	if err != nil {
		t.Fatal(err)
	}
	wantTrend := firstRep.trend
	wantTrend.TTFRP99Ns = firstRep.TTFR.P99Ns
	if len(history) != 1 || history[0] != wantTrend {
		t.Errorf("second run history = %+v, want exactly the first run's trend %+v", history, wantTrend)
	}
}

// TestToolsRejectNonPositiveCounts: a count below 1 is a usage error
// reported before any fixture is built, not a panic or a silent default.
func TestToolsRejectNonPositiveCounts(t *testing.T) {
	for _, flag := range []string{"-ops", "-pages", "-clients", "-requests", "-trials"} {
		for _, v := range []string{"0", "-1"} {
			out, code := runTool(t, "redoserve", "", "-bench", "-out", filepath.Join(t.TempDir(), "r.json"), flag, v)
			if code != 1 || strings.Contains(out, "goroutine") || !strings.Contains(out, "at least 1") {
				t.Errorf("redoserve -bench %s %s: exit %d:\n%s", flag, v, code, out)
			}
		}
	}
	for _, mode := range [][]string{{"-campaign"}, {"-nested-crash"}, {"-shards", "2"}} {
		for _, v := range []string{"0", "-1"} {
			args := append(append([]string{}, mode...), "-seeds", v)
			if out, code := runTool(t, "redosim", "", args...); code != 2 || !strings.Contains(out, "at least 1") {
				t.Errorf("redosim %v: exit %d:\n%s", args, code, out)
			}
		}
	}
}

func TestToolsCleanup(t *testing.T) {
	t.Cleanup(func() {
		if binDir != "" {
			os.RemoveAll(binDir)
		}
	})
}
