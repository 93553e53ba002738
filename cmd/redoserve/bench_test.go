package main

import "testing"

// TestBenchSmoke runs a miniature availability benchmark end to end
// and checks its invariants (samples present, nonzero timings, clients
// actually served during recovery).
func TestBenchSmoke(t *testing.T) {
	res, err := measure(fixture{
		Ops: 400, Pages: 64, Rounds: 64,
		Clients: 2, Requests: 40, Trials: 2,
	}, 11)
	if err != nil {
		t.Fatal(err)
	}
	if res.samples != 4 {
		t.Fatalf("samples = %d, want clients×trials = 4", res.samples)
	}
	if res.TTFR.P50Ns <= 0 || res.TTFR.P99Ns < res.TTFR.P50Ns || res.TTFR.MaxNs < res.TTFR.P99Ns {
		t.Fatalf("percentiles out of order: %+v", res)
	}
	if res.OfflineRecoveryNs <= 0 || res.OnlineRecoveryNs <= 0 {
		t.Fatalf("missing recovery timings: %+v", res)
	}
	if res.Reads == 0 || res.Writes == 0 {
		t.Fatalf("clients served nothing: %+v", res)
	}
}

// TestRunBenchPerTrialCounters is the regression test for the
// accumulated-stats bug: the benchmark once summed each trial's
// fresh-engine counters into a single set reported as if per-run, so a
// 144-component plan showed up as swept_components: 1831 over 5
// trials. Counters must be per-trial facts — a trial can recover at
// most Components components, split between lazy touches and the
// sweeper — and the headline numbers their means.
func TestRunBenchPerTrialCounters(t *testing.T) {
	const trials = 3
	res, err := measure(fixture{
		Ops: 120, Pages: 16, Rounds: 4,
		Clients: 2, Requests: 12, Trials: trials,
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerTrial) != trials {
		t.Fatalf("PerTrial has %d entries, want %d", len(res.PerTrial), trials)
	}
	var reads, lazy, swept float64
	for i, ts := range res.PerTrial {
		if ts.Components <= 0 {
			t.Fatalf("trial %d: no components in the recovery plan", i)
		}
		if ts.Swept+ts.Lazy > int64(ts.Components) {
			t.Errorf("trial %d: swept %d + lazy %d exceeds the %d-component plan — counters leaked across trials",
				i, ts.Swept, ts.Lazy, ts.Components)
		}
		if ts.Reads <= 0 {
			t.Errorf("trial %d: no reads recorded", i)
		}
		reads += float64(ts.Reads)
		lazy += float64(ts.Lazy)
		swept += float64(ts.Swept)
	}
	if want := reads / trials; res.Reads != want {
		t.Errorf("Reads = %v, want per-trial mean %v", res.Reads, want)
	}
	if want := lazy / trials; res.Lazy != want {
		t.Errorf("Lazy = %v, want per-trial mean %v", res.Lazy, want)
	}
	if want := swept / trials; res.Swept != want {
		t.Errorf("Swept = %v, want per-trial mean %v", res.Swept, want)
	}
}
