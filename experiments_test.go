package redotheory_test

// Experiment harnesses: each Test below regenerates one row of
// EXPERIMENTS.md, printing the measured values and asserting the shape
// the paper predicts. Run them all with:
//
//	go test -run Experiment -v .

import (
	"fmt"
	"math/rand"
	"testing"

	"redotheory/internal/btree"
	"redotheory/internal/conflict"
	"redotheory/internal/core"
	"redotheory/internal/fault"
	"redotheory/internal/graph"
	"redotheory/internal/install"
	"redotheory/internal/method"
	"redotheory/internal/model"
	"redotheory/internal/sim"
	"redotheory/internal/stategraph"
	"redotheory/internal/workload"
)

// anyShape is the arbitrary read/write-set workload logical and
// physical recovery accept.
func anyShape(t testing.TB, n int, pages []model.Var, seed int64) []*model.Op {
	ops, err := workload.ForMethod("logical", n, pages, seed)
	if err != nil {
		t.Fatal(err)
	}
	return ops
}

// mustApply applies an operation known to be well-formed.
func mustApply(s *model.State, op *model.Op) {
	if _, err := s.Apply(op); err != nil {
		panic(err)
	}
}

func TestExperimentE1E2E3ScenarioVerdicts(t *testing.T) {
	fmt.Println("E1–E3: scenario verdicts (Figures 1–3)")
	for _, sc := range []workload.Scenario{
		workload.Scenario1(), workload.Scenario2(), workload.Scenario3(),
	} {
		cg := conflict.FromOps(sc.Ops...)
		ig := install.FromConflict(cg)
		sg, err := stategraph.FromConflict(cg, sc.Initial)
		if err != nil {
			t.Fatal(err)
		}
		installed := graph.NewSet(sc.Installed...)
		err = ig.PotentiallyRecoverable(sg, installed, sc.CrashState)
		got := err == nil
		fmt.Printf("  %-24s paper: recoverable=%-5v measured: recoverable=%-5v\n",
			sc.Name, sc.Recoverable, got)
		if got != sc.Recoverable {
			t.Errorf("%s: verdict mismatch", sc.Name)
		}
	}
}

func TestExperimentE5PrefixCounts(t *testing.T) {
	// Figure 5's point: the installation graph strictly widens the set of
	// recoverable prefixes. On the running example it is 5 vs 4
	// (including the full and empty prefixes).
	sc := workload.Figure4()
	cg := conflict.FromOps(sc.Ops...)
	ig := install.FromConflict(cg)
	ip, err := ig.DAG().EnumeratePrefixes(1 << 12)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := cg.DAG().EnumeratePrefixes(1 << 12)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("E5: prefixes on the Figure 4/5 example: installation=%d conflict=%d\n", len(ip), len(cp))
	if len(ip) != 5 || len(cp) != 4 {
		t.Errorf("expected 5 installation prefixes vs 4 conflict prefixes, got %d vs %d", len(ip), len(cp))
	}
	// And in general the containment is one-way.
	rng := rand.New(rand.NewSource(5))
	totalI, totalC := 0, 0
	for trial := 0; trial < 50; trial++ {
		ops := anyShape(t, 8, workload.Pages(3), rng.Int63())
		g := conflict.FromOps(ops...)
		i2, err1 := install.FromConflict(g).DAG().EnumeratePrefixes(1 << 14)
		c2, err2 := g.DAG().EnumeratePrefixes(1 << 14)
		if err1 != nil || err2 != nil {
			continue
		}
		totalI += len(i2)
		totalC += len(c2)
		if len(i2) < len(c2) {
			t.Error("installation graph has fewer prefixes than the conflict graph")
		}
	}
	fmt.Printf("E5: over 50 random 8-op histories: installation prefixes=%d conflict prefixes=%d (%.2fx)\n",
		totalI, totalC, float64(totalI)/float64(totalC))
}

func TestExperimentE7CarefulWriteOrder(t *testing.T) {
	// Figure 7: collapsing the x-writers O and Q forces y before x.
	s0 := model.NewState()
	s0.SetInt("x", 1)
	cg := conflict.FromOps(
		model.Incr(1, "x", 1),
		model.CopyPlus(2, "y", "x", 1),
		model.Incr(3, "x", 1))
	sg, err := stategraph.FromConflict(cg, s0)
	if err != nil {
		t.Fatal(err)
	}
	// The experiment lives in internal/writegraph's tests; here we record
	// the shape: with O,Q collapsed, the only legal install order is P
	// first. Verified via the minimal-uninstalled sequence.
	ig := install.FromConflict(cg)
	_ = sg
	if !ig.IsPrefix(graph.NewSet[model.OpID](2)) {
		t.Error("P must be installable first")
	}
	fmt.Println("E7: collapse({O,Q}) forces install order [P, {O,Q}] — verified in writegraph tests")
}

func TestExperimentE9CrashMatrix(t *testing.T) {
	fmt.Println("E9: crash matrix — 4 methods × every crash point of a 30-op workload")
	pages := workload.Pages(8)
	rows := []struct {
		name string
		mk   sim.Factory
	}{
		{"logical", func(s *model.State) method.DB { return method.NewLogical(s) }},
		{"physical", func(s *model.State) method.DB { return method.NewPhysical(s) }},
		{"physiological", func(s *model.State) method.DB { return method.NewPhysiological(s) }},
		{"physiological+dpt", func(s *model.State) method.DB { return method.NewPhysiologicalDPT(s) }},
		{"genlsn", func(s *model.State) method.DB { return method.NewGenLSN(s) }},
		{"genlsn+mv", func(s *model.State) method.DB { return method.NewGenLSNMV(s) }},
		{"grouplsn", func(s *model.State) method.DB { return method.NewGroupLSN(s) }},
	}
	for _, row := range rows {
		ops, err := workload.ForMethod(row.name, 30, pages, 17)
		if err != nil {
			t.Fatal(err)
		}
		results, err := sim.Sweep(sim.NamedFactory{Name: row.name, New: row.mk}, ops, len(pages), 17, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		s := sim.Summarize(results)
		fmt.Printf("  %-14s crash points=%d recovered=%d invariant=%d replayed=%d examined=%d\n",
			s.Method, s.Runs, s.Recovered, s.InvariantOK, s.Replayed, s.Examined)
		if s.Recovered != s.Runs || s.InvariantOK != s.Runs {
			t.Errorf("%s: not every crash point recovered", row.name)
		}
	}
}

func TestExperimentE10SplitLogVolume(t *testing.T) {
	fmt.Println("E10: B-tree split log bytes, physiological vs generalized (Section 6.4)")
	rng := rand.New(rand.NewSource(7))
	keys := make([]int64, 1200)
	for i := range keys {
		keys[i] = rng.Int63n(10_000_000)
	}
	prevRatio := 0.0
	for _, order := range []int{8, 16, 32, 64} {
		physio := method.NewPhysiological(model.NewState())
		trP := btree.New(physio, btree.PhysiologicalSplit, order, 1)
		gen := method.NewGenLSN(model.NewState())
		trG := btree.New(gen, btree.GeneralizedSplit, order, 1)
		for _, k := range keys {
			if err := trP.Insert(k); err != nil {
				t.Fatal(err)
			}
			if err := trG.Insert(k); err != nil {
				t.Fatal(err)
			}
		}
		pS, gS := btree.SplitLogBytes(physio.Log()), btree.SplitLogBytes(gen.Log())
		ratio := float64(pS) / float64(gS)
		fmt.Printf("  order=%-3d splits=%-4d physio=%-7d genlsn=%-7d ratio=%.2fx\n",
			order, trP.Splits, pS, gS, ratio)
		if ratio <= 1.5 {
			t.Errorf("order %d: ratio %.2f, expected the generalized strategy to win clearly", order, ratio)
		}
		if ratio < prevRatio {
			t.Errorf("order %d: ratio shrank (%.2f -> %.2f); it should grow with page size", order, prevRatio, ratio)
		}
		prevRatio = ratio
	}
}

func TestExperimentE11LegacyEdgeCounts(t *testing.T) {
	// The legacy construction removes at least the new construction's
	// edges; count how many more over random histories.
	rng := rand.New(rand.NewSource(11))
	var conflictE, newE, legacyE int
	for trial := 0; trial < 100; trial++ {
		ops := anyShape(t, 20, workload.Pages(4), rng.Int63())
		cg := conflict.FromOps(ops...)
		conflictE += cg.DAG().NumEdges()
		newE += install.FromConflict(cg).DAG().NumEdges()
		legacyE += install.LegacyFromConflict(cg).DAG().NumEdges()
	}
	fmt.Printf("E11: edges over 100 random 20-op histories: conflict=%d new-installation=%d legacy=%d\n",
		conflictE, newE, legacyE)
	if newE > conflictE || legacyE > newE {
		t.Errorf("edge containment violated: %d / %d / %d", conflictE, newE, legacyE)
	}
}

func TestExperimentE13CheckpointInterval(t *testing.T) {
	// Extension experiment: recovery work versus checkpoint frequency.
	// More frequent checkpoints shrink the redo scan (Examined) at the
	// price of more checkpoint work; the curve should be monotone.
	fmt.Println("E13: recovery work vs checkpoint interval (physiological, 237 ops)")
	pages := workload.Pages(8)
	s0 := workload.InitialState(pages)
	ops := workload.SinglePage(237, pages, 23, false)
	prevExamined := -1
	for _, interval := range []int{10, 25, 50, 100, 0} { // 0 = never
		db := method.NewPhysiological(s0)
		for i, op := range ops {
			if err := db.Exec(op); err != nil {
				t.Fatal(err)
			}
			if i%3 == 0 { // a lazy background writer: some pages stay dirty
				db.FlushOne()
			}
			if interval > 0 && (i+1)%interval == 0 {
				// Checkpoint-triggered draining: flush everything so the
				// fuzzy bound actually advances to the checkpoint.
				for db.FlushOne() {
				}
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		db.FlushLog()
		stats := db.Stats()
		db.Crash()
		res, err := method.Recover(db)
		if err != nil {
			t.Fatal(err)
		}
		oracle := s0.Clone()
		for _, op := range db.StableLog().Ops() {
			mustApply(oracle, op)
		}
		if !res.State.Equal(oracle) {
			t.Fatalf("interval %d: recovery diverged", interval)
		}
		label := fmt.Sprint(interval)
		if interval == 0 {
			label = "never"
		}
		fmt.Printf("  checkpoint every %-5s ops: examined=%-3d replayed=%-3d checkpoints=%d\n",
			label, res.Examined, len(res.RedoSet()), stats.Checkpoints)
		if prevExamined >= 0 && res.Examined < prevExamined {
			t.Errorf("interval %s: examined %d < previous %d; scan work should grow as checkpoints thin out",
				label, res.Examined, prevExamined)
		}
		prevExamined = res.Examined
	}
}

func TestExperimentE14DPTAnalysisBenefit(t *testing.T) {
	// Extension experiment: the ARIES-style analysis phase lets the redo
	// test reject installed operations without reading their pages.
	fmt.Println("E14: DPT analysis skips vs plain page-LSN testing")
	pages := workload.Pages(8)
	s0 := workload.InitialState(pages)
	ops := workload.SinglePage(150, pages, 29, false)
	db := method.NewPhysiologicalDPT(s0)
	// The first page is never flushed: it pins the checkpoint bound low.
	for i, op := range ops {
		if err := db.Exec(op); err != nil {
			t.Fatal(err)
		}
		// Install everything except the hot page, so plenty of installed
		// work sits above the bound where only the analysis can skip it
		// cheaply.
		for _, p := range pages[1:] {
			_ = db.FlushPage(p)
		}
		if (i+1)%40 == 0 {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	db.FlushLog()
	db.Crash()
	res, err := method.Recover(db)
	if err != nil {
		t.Fatal(err)
	}
	oracle := s0.Clone()
	for _, op := range db.StableLog().Ops() {
		mustApply(oracle, op)
	}
	if !res.State.Equal(oracle) {
		t.Fatal("recovery diverged")
	}
	// The table the analysis reconstructs rejects an unrecovered record
	// without a page read when its page is absent (clean at the
	// checkpoint, never re-dirtied) or it sits below the page's recLSN.
	log, ckpt := db.StableLog(), db.Checkpointed()
	dpt := db.Analyze()(db.StableState(), log, ckpt).(map[model.Var]core.LSN)
	skips := 0
	for _, r := range log.Records() {
		if recLSN, dirty := dpt[r.Op.Writes()[0]]; !ckpt.Has(r.Op.ID()) && (!dirty || r.LSN < recLSN) {
			skips++
		}
	}
	fmt.Printf("  examined=%d replayed=%d dpt-skips=%d (rejections decided without a page read)\n",
		res.Examined, len(res.RedoSet()), skips)
	if skips == 0 {
		t.Error("the analysis phase never fired; the workload should leave installed work above the bound")
	}
}

func TestExperimentE15AtomicGroupSizes(t *testing.T) {
	// Extension experiment for Section 7's "large atomic transitions"
	// problem: multi-page write sets chain atomicity obligations through
	// the shared cache copies. Measure the largest atomic write group
	// the grouplsn method needs as transfers touch more shared pages.
	// The driver is how long the cache accumulates before installing:
	// each transfer entangles two pages, so a background writer that lags
	// k transfers faces atomic groups that grow with k (bounded by the
	// page count). This is precisely why the paper flags "how to manage
	// or avoid large atomic transitions" as challenging.
	fmt.Println("E15: atomic write-group sizes under grouplsn (Section 5/7)")
	prevMax := 0
	for _, lag := range []int{1, 4, 16, 64} {
		pages := workload.Pages(16)
		s0 := workload.InitialState(pages)
		db := method.NewGroupLSN(s0)
		for i, op := range workload.BankTransfers(64, pages, 3) {
			if err := db.Exec(op); err != nil {
				t.Fatal(err)
			}
			if i%lag == lag-1 {
				db.FlushOne()
			}
		}
		for db.FlushOne() {
		}
		fmt.Printf("  writer lag=%-3d transfers=64: group flushes=%-3d max group size=%d\n",
			lag, db.GroupFlushes, db.MaxGroupSize)
		if db.MaxGroupSize < prevMax {
			t.Errorf("group size shrank as the writer lagged more (%d -> %d)", prevMax, db.MaxGroupSize)
		}
		prevMax = db.MaxGroupSize
		db.Crash()
		res, err := method.Recover(db)
		if err != nil {
			t.Fatal(err)
		}
		oracle := s0.Clone()
		for _, op := range db.StableLog().Ops() {
			mustApply(oracle, op)
		}
		if !res.State.Equal(oracle) {
			t.Fatal("grouplsn recovery diverged")
		}
	}
}

func TestExperimentE16LogTruncation(t *testing.T) {
	// Extension experiment: checkpoints exist to bound the log. With
	// truncation after each checkpoint, the retained log stays flat as
	// the history grows; without it, the log grows linearly.
	fmt.Println("E16: retained log records with and without truncation (physiological)")
	pages := workload.Pages(8)
	s0 := workload.InitialState(pages)
	for _, n := range []int{130, 430, 1630} {
		ops := workload.SinglePage(n, pages, 41, false)
		retained := map[bool]int{}
		for _, truncate := range []bool{false, true} {
			db := method.NewPhysiological(s0)
			for i, op := range ops {
				if err := db.Exec(op); err != nil {
					t.Fatal(err)
				}
				db.FlushOne()
				if (i+1)%50 == 0 {
					for db.FlushOne() {
					}
					if err := db.Checkpoint(); err != nil {
						t.Fatal(err)
					}
					if truncate {
						if _, err := db.TruncateCheckpointed(); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			db.FlushLog()
			retained[truncate] = db.Log().Len()
			db.Crash()
			res, err := method.Recover(db)
			if err != nil {
				t.Fatal(err)
			}
			oracle := db.RecoveryBase()
			for _, op := range db.StableLog().Ops() {
				mustApply(oracle, op)
			}
			if !res.State.Equal(oracle) {
				t.Fatalf("n=%d truncate=%v: recovery diverged", n, truncate)
			}
		}
		fmt.Printf("  ops=%-5d retained without truncation=%-5d with=%d\n",
			n, retained[false], retained[true])
		if retained[false] != n {
			t.Errorf("untruncated log should retain all %d records", n)
		}
		if retained[true] > 60 {
			t.Errorf("truncated log retained %d records; should stay near the checkpoint interval", retained[true])
		}
	}
}

func TestExperimentE17InvariantNecessity(t *testing.T) {
	// The paper's second main result (Section 1.2): if recovery chooses a
	// redo set, the remaining operations MUST form an explaining prefix
	// for recovery to be guaranteed. Sufficiency (Corollary 4) is exact:
	// whenever the invariant holds, recovery succeeds — asserted here
	// with zero tolerance. Necessity is about guarantees, not instances:
	// a violating redo set can get lucky (Section 7's over-replay
	// latitude), so we report how often violation nevertheless recovers,
	// and assert that it is unreliable (fails somewhere) while the
	// invariant never does.
	rng := rand.New(rand.NewSource(99))
	var holdRecovered, holdTotal, violRecovered, violTotal int
	for trial := 0; trial < 400; trial++ {
		ops := anyShape(t, 10, workload.Pages(3), rng.Int63())
		lg := coreLogOf(ops)
		ck, err := core.NewChecker(lg, model.NewState())
		if err != nil {
			t.Fatal(err)
		}
		// A random claimed-installed subset, prefix or not, with the
		// state built as the subset's effects applied in log order (what
		// a buggy cache manager might leave behind).
		installed := graph.NewSet[model.OpID]()
		state := model.NewState()
		for _, op := range ops {
			if rng.Float64() < 0.5 {
				installed.Add(op.ID())
				mustApply(state, op)
			}
		}
		redo := func(r *core.Record, _ core.Analysis) bool {
			return !installed.Has(r.Op.ID())
		}
		rep := ck.CheckInstalled(state, installed)
		res, err := core.Recover(core.Survivors{State: state.Clone(), Log: lg, Redo: redo})
		if err != nil {
			continue
		}
		recovered := res.State.Equal(ck.FinalState())
		if rep.OK {
			holdTotal++
			if recovered {
				holdRecovered++
			}
		} else {
			violTotal++
			if recovered {
				violRecovered++
			}
		}
	}
	fmt.Printf("E17: invariant holds: %d/%d recovered; invariant violated: %d/%d recovered anyway\n",
		holdRecovered, holdTotal, violRecovered, violTotal)
	if holdRecovered != holdTotal {
		t.Errorf("Corollary 4 broken: %d/%d", holdRecovered, holdTotal)
	}
	if violTotal == 0 || holdTotal == 0 {
		t.Fatal("degenerate sample")
	}
	if violRecovered == violTotal {
		t.Error("every violating configuration recovered; necessity experiment is inert")
	}
}

// coreLogOf builds a core.Log from operations in order.
func coreLogOf(ops []*model.Op) *core.Log {
	l := core.NewLog()
	for _, op := range ops {
		l.Append(op)
	}
	return l
}

func TestExperimentWALFaultDetection(t *testing.T) {
	pages := workload.Pages(4)
	ops := workload.SinglePage(25, pages, 3, false)
	detected := 0
	for crash := 1; crash <= len(ops); crash++ {
		res, err := sim.Run(sim.Cell{
			Method: sim.NamedFactory{Name: "physiological", New: func(s *model.State) method.DB { return method.NewPhysiological(s) }},
			Pages:  len(pages), Ops: ops, Crash: crash,
			Sched:      sim.Sched{Seed: int64(crash), FlushProb: 0.6, ForceProb: 0.05, CheckpointProb: 0.1},
			DisableWAL: true}, sim.MatrixLegs)
		if err != nil {
			t.Fatal(err)
		}
		if !res.InvariantOK || !res.Recovered {
			detected++
		}
	}
	fmt.Printf("WAL fault injection: %d/%d crash points detectably broken\n", detected, len(ops))
	if detected == 0 {
		t.Error("WAL fault injection was inert")
	}
}

func TestExperimentE18MediaFaultCampaign(t *testing.T) {
	fmt.Println("E18: media-fault campaign (methods × fault kinds × crash points × seeds)")
	methods := []sim.NamedFactory{
		{Name: "logical", New: func(s *model.State) method.DB { return method.NewLogical(s) }},
		{Name: "physical", New: func(s *model.State) method.DB { return method.NewPhysical(s) }},
		{Name: "physiological", New: func(s *model.State) method.DB { return method.NewPhysiological(s) }},
		{Name: "physiological+dpt", New: func(s *model.State) method.DB { return method.NewPhysiologicalDPT(s) }},
		{Name: "genlsn", New: func(s *model.State) method.DB { return method.NewGenLSN(s) }},
		{Name: "genlsn+mv", New: func(s *model.State) method.DB { return method.NewGenLSNMV(s) }},
		{Name: "grouplsn", New: func(s *model.State) method.DB { return method.NewGroupLSN(s) }},
	}
	results, err := sim.Campaign(sim.Grid{
		Methods: methods, Ops: 14, Pages: 4,
		CrashPoints: []int{0, 7, 14}, Seeds: []int64{1, 2, 3},
	}, fault.Kinds(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	sum := sim.SummarizeCampaign(results)
	fmt.Printf("  %d runs: %d exact, %d degraded, %d unrecoverable, %d not fired, %d SILENT\n",
		sum.Runs, sum.ByOutcome[sim.RecoveredExact], sum.ByOutcome[sim.RecoveredDegraded],
		sum.ByOutcome[sim.DetectedUnrecoverable], sum.ByOutcome[sim.FaultNotFired], sum.Silent)
	if sum.Silent != 0 {
		for _, r := range results {
			if !r.OK() {
				t.Errorf("silent corruption: %s", r.Cell.String())
			}
		}
	}
	degradedOrDetected := sum.ByOutcome[sim.RecoveredDegraded] + sum.ByOutcome[sim.DetectedUnrecoverable]
	if degradedOrDetected == 0 {
		t.Error("campaign exercised nothing: no run degraded or detected")
	}
}
