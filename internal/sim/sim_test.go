package sim

import (
	"testing"
	"testing/quick"

	"redotheory/internal/method"
	"redotheory/internal/model"
	"redotheory/internal/workload"
)

var factories = map[string]Factory{
	"physiological":     func(s *model.State) method.DB { return method.NewPhysiological(s) },
	"physiological+dpt": func(s *model.State) method.DB { return method.NewPhysiologicalDPT(s) },
	"physical":          func(s *model.State) method.DB { return method.NewPhysical(s) },
	"logical":           func(s *model.State) method.DB { return method.NewLogical(s) },
	"genlsn":            func(s *model.State) method.DB { return method.NewGenLSN(s) },
	"genlsn+mv":         func(s *model.State) method.DB { return method.NewGenLSNMV(s) },
	"grouplsn":          func(s *model.State) method.DB { return method.NewGroupLSN(s) },
}

func TestRunAllMethodsRecover(t *testing.T) {
	pages := workload.Pages(6)
	s0 := workload.InitialState(pages)
	for name, mk := range factories {
		ops, err := workload.ForMethod(name, 40, pages, 7)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(mk, Config{Ops: ops, Initial: s0, CrashAfter: 25, Sched: DefaultSched(99)})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Recovered {
			t.Errorf("%s: recovery diverged from oracle", name)
		}
		if !res.InvariantOK {
			t.Errorf("%s: invariant violated: %v", name, res.Violations)
		}
		if res.Method != name {
			t.Errorf("method name = %q", res.Method)
		}
	}
}

func TestSweepEveryCrashPoint(t *testing.T) {
	pages := workload.Pages(4)
	s0 := workload.InitialState(pages)
	for name, mk := range factories {
		ops, err := workload.ForMethod(name, 15, pages, 3)
		if err != nil {
			t.Fatal(err)
		}
		results, err := Sweep(mk, ops, s0, 11, 0, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := Summarize(results)
		if sum.Runs != 16 {
			t.Errorf("%s: runs = %d, want 16", name, sum.Runs)
		}
		if sum.Recovered != sum.Runs {
			t.Errorf("%s: only %d/%d crash points recovered", name, sum.Recovered, sum.Runs)
		}
		if sum.InvariantOK != sum.Runs {
			t.Errorf("%s: invariant held at only %d/%d crash points", name, sum.InvariantOK, sum.Runs)
		}
	}
}

func TestWALFaultIsDetected(t *testing.T) {
	// With the WAL gate disabled, some crash point must yield a state the
	// checker rejects or recovery cannot reproduce: a page reaches disk
	// before its log record, so the stable state contains effects of
	// operations that no longer exist.
	pages := workload.Pages(3)
	s0 := workload.InitialState(pages)
	ops := workload.SinglePage(30, pages, 5, false)
	detected := false
	for crash := 1; crash <= len(ops); crash++ {
		res, err := Run(factories["physiological"], Config{
			Ops: ops, Initial: s0, CrashAfter: crash,
			Sched:      Sched{Seed: int64(crash), FlushProb: 0.6, ForceProb: 0.05, CheckpointProb: 0.1},
			DisableWAL: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.InvariantOK || !res.Recovered {
			detected = true
			break
		}
	}
	if !detected {
		t.Error("WAL violations never produced a detectable bad state; fault injection is inert")
	}
}

func TestCrashMatrixProperty(t *testing.T) {
	// The E9 shape: for random seeds, every method recovers at a random
	// crash point and the invariant holds.
	f := func(seed int64) bool {
		pages := workload.Pages(5)
		s0 := workload.InitialState(pages)
		for name, mk := range factories {
			ops, err := workload.ForMethod(name, 20, pages, seed)
			if err != nil {
				return false
			}
			crash := int(uint64(seed) % uint64(len(ops)+1))
			res, err := Run(mk, Config{Ops: ops, Initial: s0, CrashAfter: crash, Sched: DefaultSched(seed)})
			if err != nil || !res.Recovered || !res.InvariantOK {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestRunValidatesCrashPoint(t *testing.T) {
	if _, err := Run(factories["physical"], Config{Ops: nil, CrashAfter: 5}); err == nil {
		t.Error("out-of-range crash point accepted")
	}
}

func TestSkipChecker(t *testing.T) {
	pages := workload.Pages(3)
	ops := workload.SinglePage(10, pages, 1, false)
	res, err := Run(factories["physiological"], Config{
		Ops: ops, Initial: workload.InitialState(pages), CrashAfter: 10, Sched: DefaultSched(1), SkipChecker: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Recovered || !res.InvariantOK {
		t.Error("SkipChecker run failed")
	}
	if len(res.Violations) != 0 {
		t.Error("violations reported without checker")
	}
}

func TestOnlineAuditFollowsExecution(t *testing.T) {
	// The live auditor must hold at every step for the page-LSN methods,
	// across random schedules and crash points.
	for _, name := range []string{"physiological", "physiological+dpt", "genlsn", "genlsn+mv", "grouplsn"} {
		pages := workload.Pages(5)
		s0 := workload.InitialState(pages)
		ops, err := workload.ForMethod(name, 30, pages, 13)
		if err != nil {
			t.Fatal(err)
		}
		for crash := 0; crash <= len(ops); crash += 6 {
			res, err := Run(factories[name], Config{
				Ops: ops, Initial: s0, CrashAfter: crash, Sched: DefaultSched(int64(crash)), OnlineAudit: true,
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !res.OnlineOK {
				t.Errorf("%s crash=%d: live auditor flagged a violation", name, crash)
			}
			if !res.Recovered || !res.InvariantOK {
				t.Errorf("%s crash=%d: offline verdicts failed", name, crash)
			}
			if crash > 0 && res.OnlineAudits != crash {
				t.Errorf("%s: %d audits for %d steps", name, res.OnlineAudits, crash)
			}
		}
	}
}

func TestOnlineAuditCatchesWALFault(t *testing.T) {
	// With the WAL gate off, the live auditor still audits against the
	// full history it observed, so pure page-before-log races do not
	// confuse it — but the offline check against the surviving log does
	// catch them. Both signals are reported; at least one must fire
	// somewhere in the sweep.
	pages := workload.Pages(3)
	s0 := workload.InitialState(pages)
	ops := workload.SinglePage(30, pages, 5, false)
	caught := false
	for crash := 1; crash <= len(ops); crash++ {
		res, err := Run(factories["physiological"], Config{
			Ops: ops, Initial: s0, CrashAfter: crash,
			Sched:      Sched{Seed: int64(crash), FlushProb: 0.6, ForceProb: 0.05, CheckpointProb: 0.1},
			DisableWAL: true, OnlineAudit: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.InvariantOK || !res.Recovered || !res.OnlineOK {
			caught = true
		}
	}
	if !caught {
		t.Error("no signal fired under WAL fault injection")
	}
}

func TestTruncationSweep(t *testing.T) {
	// With aggressive truncation after checkpoints, every crash point
	// still recovers: the recovery base absorbs the dropped prefix.
	for name, mk := range factories {
		pages := workload.Pages(5)
		s0 := workload.InitialState(pages)
		ops, err := workload.ForMethod(name, 25, pages, 19)
		if err != nil {
			t.Fatal(err)
		}
		totalTruncated := 0
		for crash := 0; crash <= len(ops); crash += 5 {
			res, err := Run(mk, Config{
				Ops: ops, Initial: s0, CrashAfter: crash,
				Sched: Sched{Seed: int64(crash) + 3, FlushProb: 0.3, ForceProb: 0.2, CheckpointProb: 0.25, TruncateProb: 1.0},
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !res.Recovered || !res.InvariantOK {
				t.Errorf("%s crash=%d: recovered=%v invariant=%v (truncated %d)",
					name, crash, res.Recovered, res.InvariantOK, res.TruncatedRecords)
			}
			totalTruncated += res.TruncatedRecords
		}
		if totalTruncated == 0 {
			t.Errorf("%s: truncation never fired", name)
		}
	}
}

func TestBankTransfersConserveMoney(t *testing.T) {
	// Domain check: transfers through logical recovery conserve the total
	// across crash and recovery at every point.
	pages := workload.Pages(4)
	s0 := workload.InitialState(pages)
	var total int64
	for _, p := range pages {
		total += model.AsInt(s0.Get(p))
	}
	ops := workload.BankTransfers(12, pages, 21)
	for crash := 0; crash <= len(ops); crash++ {
		res, err := Run(factories["logical"], Config{Ops: ops, Initial: s0, CrashAfter: crash, Sched: DefaultSched(int64(crash))})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Recovered || !res.InvariantOK {
			t.Fatalf("crash %d: recovery failed", crash)
		}
	}
	// Verify conservation on a full no-crash run's oracle.
	final := s0.Clone()
	for _, op := range ops {
		if _, err := final.Apply(op); err != nil {
			t.Fatal(err)
		}
	}
	var got int64
	for _, p := range pages {
		got += model.AsInt(final.Get(p))
	}
	if got != total {
		t.Errorf("total = %d, want %d", got, total)
	}
}
