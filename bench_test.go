package redotheory_test

// The benchmark harness: one benchmark (or family) per paper figure and
// per experiment in DESIGN.md's index. The paper reports no absolute
// numbers, so the quantities of record are the shapes: who wins, by what
// factor, and how costs scale with history length. EXPERIMENTS.md records
// a run of these next to the paper's claims.

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
	"redotheory/internal/supervise"
	"redotheory/internal/workload"
	"redotheory/internal/writegraph"
)

// --- Figures 1–3: scenario verdicts (checker + replay costs) ---

func BenchmarkFig1Scenario1Detection(b *testing.B) {
	sc := workload.Scenario1()
	cg := conflict.FromOps(sc.Ops...)
	ig := install.FromConflict(cg)
	sg, err := stategraph.FromConflict(cg, sc.Initial)
	if err != nil {
		b.Fatal(err)
	}
	installed := graph.NewSet(sc.Installed...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ig.Explains(sg, installed, sc.CrashState) == nil {
			b.Fatal("scenario 1 accepted")
		}
	}
}

func BenchmarkFig2Scenario2Replay(b *testing.B) {
	sc := workload.Scenario2()
	cg := conflict.FromOps(sc.Ops...)
	ig := install.FromConflict(cg)
	sg, err := stategraph.FromConflict(cg, sc.Initial)
	if err != nil {
		b.Fatal(err)
	}
	installed := graph.NewSet(sc.Installed...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ig.Replay(sg, installed, sc.CrashState); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3ExposureAnalysis(b *testing.B) {
	sc := workload.Scenario3()
	cg := conflict.FromOps(sc.Ops...)
	installed := graph.NewSet(sc.Installed...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if install.Exposed(cg, installed, "x") || !install.Exposed(cg, installed, "y") {
			b.Fatal("exposure verdicts changed")
		}
	}
}

// --- Figure 4: conflict (state) graph construction at scale ---

func BenchmarkFig4ConflictStateGraph(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("ops=%d", n), func(b *testing.B) {
			pages := workload.Pages(32)
			ops := workload.ReadManyWriteOne(n, pages, 3, 42)
			s0 := workload.InitialState(pages)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cg := conflict.FromOps(ops...)
				if _, err := stategraph.FromConflict(cg, s0); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}

// --- Figure 5: installation graph derivation and prefix checks ---

func BenchmarkFig5InstallationGraph(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("ops=%d", n), func(b *testing.B) {
			pages := workload.Pages(32)
			cg := conflict.FromOps(workload.ReadManyWriteOne(n, pages, 3, 42)...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				install.FromConflict(cg)
			}
		})
	}
}

func BenchmarkFig5PrefixCheck(b *testing.B) {
	pages := workload.Pages(32)
	cg := conflict.FromOps(workload.ReadManyWriteOne(5000, pages, 3, 42)...)
	ig := install.FromConflict(cg)
	// Half the history, closed into a prefix.
	half := graph.NewSet[model.OpID]()
	for i, id := range cg.OpIDs() {
		if i < 2500 {
			half.Add(id)
		}
	}
	prefix := ig.DAG().PrefixClosure(half)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !ig.IsPrefix(prefix) {
			b.Fatal("closure is not a prefix")
		}
	}
}

// --- Figure 6: the abstract recovery procedure ---

func BenchmarkFig6Recover(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			pages := workload.Pages(32)
			s0 := workload.InitialState(pages)
			ops := workload.SinglePage(n, pages, 42, false)
			lg := core.NewLog()
			for _, op := range ops {
				lg.Append(op)
			}
			redo := func(*core.Record, core.Analysis) bool { return true }
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Recover(core.Survivors{State: s0.Clone(), Log: lg, Redo: redo}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "replays/s")
		})
	}
}

// --- Figure 7: write graph mutation throughput ---

func BenchmarkFig7WriteGraphCollapse(b *testing.B) {
	pages := workload.Pages(16)
	ops := workload.SinglePage(512, pages, 42, false)
	cg := conflict.FromOps(ops...)
	sg, err := stategraph.FromConflict(cg, workload.InitialState(pages))
	if err != nil {
		b.Fatal(err)
	}
	ig := install.FromConflict(cg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := writegraph.FromInstallation(ig, sg)
		// Collapse each page's chain of nodes pairwise, as a cache with
		// one copy per page does.
		collapses := 0
		for _, p := range pages {
			for {
				ws := g.Writers(model.Var(p))
				if len(ws) < 2 {
					break
				}
				if _, err := g.Collapse(ws[0], ws[1]); err != nil {
					b.Fatal(err)
				}
				collapses++
			}
		}
		if i == 0 {
			b.ReportMetric(float64(collapses), "collapses/op")
		}
	}
}

func BenchmarkFig7WriteGraphInstallDrain(b *testing.B) {
	pages := workload.Pages(16)
	ops := workload.SinglePage(256, pages, 42, false)
	cg := conflict.FromOps(ops...)
	sg, err := stategraph.FromConflict(cg, workload.InitialState(pages))
	if err != nil {
		b.Fatal(err)
	}
	ig := install.FromConflict(cg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := writegraph.FromInstallation(ig, sg)
		for {
			m := g.UninstalledMinimal()
			if len(m) == 0 {
				break
			}
			if err := g.Install(m[0]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Figure 8 / E10: B-tree splits under the two logging strategies ---

func benchBTree(b *testing.B, strategy btree.SplitStrategy, mk func() btree.Executor, statsOf func() method.Stats) {
	rng := rand.New(rand.NewSource(9))
	keys := make([]int64, 1000)
	for i := range keys {
		keys[i] = rng.Int63n(1 << 40)
	}
	b.ResetTimer()
	var lastBytes int
	for i := 0; i < b.N; i++ {
		tr := btree.New(mk(), strategy, 32, 1)
		for _, k := range keys {
			if err := tr.Insert(k); err != nil {
				b.Fatal(err)
			}
		}
		lastBytes = statsOf().LogBytes
	}
	b.ReportMetric(float64(lastBytes), "logbytes/1k-inserts")
}

func BenchmarkFig8BTreeSplitPhysiological(b *testing.B) {
	var db *method.Physiological
	benchBTree(b, btree.PhysiologicalSplit,
		func() btree.Executor { db = method.NewPhysiological(model.NewState()); return db },
		func() method.Stats { return db.Stats() })
}

func BenchmarkFig8BTreeSplitGeneralized(b *testing.B) {
	var db *method.GenLSN
	benchBTree(b, btree.GeneralizedSplit,
		func() btree.Executor { db = method.NewGenLSN(model.NewState()); return db },
		func() method.Stats { return db.Stats() })
}

// --- E9: full crash/recovery cycles per method ---

func benchMethodRecovery(b *testing.B, name string, mk sim.Factory) {
	pages := workload.Pages(16)
	ops, err := workload.ForMethod(name, 200, pages, 42)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(sim.Cell{Method: sim.NamedFactory{Name: name, New: mk},
			Ops: ops, Pages: len(pages), Crash: 150, Sched: sim.DefaultSched(int64(i)),
		}, sim.LegSequential)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Recovered {
			b.Fatal("recovery diverged")
		}
	}
}

func BenchmarkRecoveryLogical(b *testing.B) {
	benchMethodRecovery(b, "logical", func(s *model.State) method.DB { return method.NewLogical(s) })
}

func BenchmarkRecoveryPhysical(b *testing.B) {
	benchMethodRecovery(b, "physical", func(s *model.State) method.DB { return method.NewPhysical(s) })
}

func BenchmarkRecoveryPhysiological(b *testing.B) {
	benchMethodRecovery(b, "physiological", func(s *model.State) method.DB { return method.NewPhysiological(s) })
}

func BenchmarkRecoveryGenLSN(b *testing.B) {
	benchMethodRecovery(b, "genlsn", func(s *model.State) method.DB { return method.NewGenLSN(s) })
}

func BenchmarkRecoveryPhysiologicalDPT(b *testing.B) {
	benchMethodRecovery(b, "physiological+dpt", func(s *model.State) method.DB { return method.NewPhysiologicalDPT(s) })
}

func BenchmarkRecoveryGenLSNMV(b *testing.B) {
	benchMethodRecovery(b, "genlsn+mv", func(s *model.State) method.DB { return method.NewGenLSNMV(s) })
}

// --- Parallel redo recovery: partitioned replay vs Figure 6 ---

// heavyCrashedDB builds one crashed physiological DB: heavy single-page
// operations over nPages pages, log forced, no page flushes — so the
// whole history is uninstalled, the redo set is everything, and the
// partition planner finds one component per page. rounds controls how
// much recomputation each replayed operation costs.
func heavyCrashedDB(tb testing.TB, nOps, nPages, rounds int) method.DB {
	tb.Helper()
	pages := workload.Pages(nPages)
	s0 := workload.InitialState(pages)
	ops := workload.HeavySinglePage(nOps, pages, rounds, 42)
	db := method.NewPhysiological(s0)
	for _, op := range ops {
		if err := db.Exec(op); err != nil {
			tb.Fatal(err)
		}
	}
	db.FlushLog()
	db.Crash()
	return db
}

// BenchmarkRecoveryParallel compares sequential Recover against
// RecoverParallel at increasing worker counts on a multi-component
// fixture. Each recovery consumes its own method.Survivors value, a
// fresh projection of the crashed DB, so one fixture serves every
// sub-benchmark.
func BenchmarkRecoveryParallel(b *testing.B) {
	db := heavyCrashedDB(b, 512, 16, 400)
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := method.Recover(db); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := method.RecoverParallel(db, method.ParallelOptions{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecoveryParallelSkewed is the adversarial shape: a Zipf-hot
// page concentrates most of the redo set into one component, bounding
// the speedup by the critical path (Amdahl's law for redo).
func BenchmarkRecoveryParallelSkewed(b *testing.B) {
	pages := workload.Pages(16)
	s0 := workload.InitialState(pages)
	ops := workload.SinglePage(512, pages, 42, true)
	db := method.NewPhysiological(s0)
	for _, op := range ops {
		if err := db.Exec(op); err != nil {
			b.Fatal(err)
		}
	}
	db.FlushLog()
	db.Crash()
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := method.Recover(db); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("workers=4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := method.RecoverParallel(db, method.ParallelOptions{Workers: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCampaignParallel measures the fault campaign on a worker pool
// against the sequential sweep of the same matrix.
func BenchmarkCampaignParallel(b *testing.B) {
	grid := func(workers int) sim.Grid {
		return sim.Grid{
			Methods: []sim.NamedFactory{
				{Name: "physiological", New: func(s *model.State) method.DB { return method.NewPhysiological(s) }},
				{Name: "genlsn", New: func(s *model.State) method.DB { return method.NewGenLSN(s) }},
			},
			Ops:         10,
			Pages:       4,
			CrashPoints: []int{0, 5, 10},
			Seeds:       []int64{1, 2},
			Workers:     workers,
		}
	}
	for _, workers := range []int{0, 4} {
		name := "sequential"
		if workers > 0 {
			name = fmt.Sprintf("workers=%d", workers)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rs, err := sim.Campaign(grid(workers), fault.Kinds(), 0.5)
				if err != nil {
					b.Fatal(err)
				}
				if sim.SummarizeCampaign(rs).Silent != 0 {
					b.Fatal("silent corruption in benchmark campaign")
				}
			}
		})
	}
}

// BenchmarkMVCacheDrain measures version-at-a-time draining of a cache
// full of crosswise dependencies, the multi-version extension's worst
// case.
func BenchmarkMVCacheDrain(b *testing.B) {
	pages := workload.Pages(8)
	s0 := workload.InitialState(pages)
	ops := workload.ReadManyWriteOne(400, pages, 4, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := method.NewGenLSNMV(s0)
		for _, op := range ops {
			if err := db.Exec(op); err != nil {
				b.Fatal(err)
			}
		}
		for db.FlushOne() {
		}
	}
}

// BenchmarkRestartInstallingRecovery measures the restart-recovery path
// (persisting redone pages as it goes) through the supervisor's
// installing pass, without crashes or the invariant audit.
func BenchmarkRestartInstallingRecovery(b *testing.B) {
	pages := workload.Pages(16)
	s0 := workload.InitialState(pages)
	ops := workload.SinglePage(500, pages, 42, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db := method.NewPhysiological(s0)
		for _, op := range ops {
			if err := db.Exec(op); err != nil {
				b.Fatal(err)
			}
		}
		db.FlushLog()
		db.Crash()
		b.StartTimer()
		if _, err := supervise.Supervise(db, supervise.Options{SkipAudit: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E12: theory-layer costs at scale ---

func BenchmarkExposedVarsAnalysis(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("ops=%d", n), func(b *testing.B) {
			pages := workload.Pages(64)
			cg := conflict.FromOps(workload.ReadManyWriteOne(n, pages, 3, 42)...)
			ig := install.FromConflict(cg)
			half := graph.NewSet[model.OpID]()
			for i, id := range cg.OpIDs() {
				if i < n/2 {
					half.Add(id)
				}
			}
			prefix := ig.DAG().PrefixClosure(half)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				install.ExposedVars(cg, prefix)
			}
		})
	}
}

func BenchmarkInvariantCheck(b *testing.B) {
	for _, n := range []int{100, 1000, 5000} {
		b.Run(fmt.Sprintf("ops=%d", n), func(b *testing.B) {
			pages := workload.Pages(32)
			s0 := workload.InitialState(pages)
			ops := workload.SinglePage(n, pages, 42, false)
			lg := core.NewLog()
			for _, op := range ops {
				lg.Append(op)
			}
			ck, err := core.NewChecker(lg, s0)
			if err != nil {
				b.Fatal(err)
			}
			state := ck.FinalState()
			all := lg.Operations()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rep := ck.CheckInstalled(state, all); !rep.OK {
					b.Fatal(rep.Summary())
				}
			}
		})
	}
}

func BenchmarkReplayTheorem3(b *testing.B) {
	pages := workload.Pages(32)
	s0 := workload.InitialState(pages)
	ops := workload.ReadManyWriteOne(2000, pages, 3, 42)
	cg := conflict.FromOps(ops...)
	ig := install.FromConflict(cg)
	sg, err := stategraph.FromConflict(cg, s0)
	if err != nil {
		b.Fatal(err)
	}
	none := graph.NewSet[model.OpID]()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ig.Replay(sg, none, s0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(2000*float64(b.N)/b.Elapsed().Seconds(), "replays/s")
}

// --- Ablations: the design choices DESIGN.md calls out ---

// BenchmarkAblationExposureChainVsReachability compares the chain-walk
// exposure analysis against the brute-force reachability definition it
// is proven equivalent to.
func BenchmarkAblationExposureChainVsReachability(b *testing.B) {
	pages := workload.Pages(16)
	cg := conflict.FromOps(workload.ReadManyWriteOne(400, pages, 3, 42)...)
	ig := install.FromConflict(cg)
	half := graph.NewSet[model.OpID]()
	for i, id := range cg.OpIDs() {
		if i < 200 {
			half.Add(id)
		}
	}
	prefix := ig.DAG().PrefixClosure(half)
	b.Run("chain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, x := range cg.Vars() {
				install.Exposed(cg, prefix, x)
			}
		}
	})
	b.Run("reachability", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, x := range cg.Vars() {
				install.ExposedByReachability(cg, prefix, x)
			}
		}
	})
}

// BenchmarkAblationMinimalDirectVsReachability compares the direct-edge
// minimal-uninstalled computation against the full path-order reference.
func BenchmarkAblationMinimalDirectVsReachability(b *testing.B) {
	pages := workload.Pages(16)
	cg := conflict.FromOps(workload.ReadManyWriteOne(300, pages, 3, 42)...)
	ig := install.FromConflict(cg)
	half := graph.NewSet[model.OpID]()
	for i, id := range cg.OpIDs() {
		if i < 150 {
			half.Add(id)
		}
	}
	prefix := ig.DAG().PrefixClosure(half)
	complement := graph.NewSet[model.OpID]()
	for _, id := range cg.OpIDs() {
		if !prefix.Has(id) {
			complement.Add(id)
		}
	}
	b.Run("direct-edges", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ig.MinimalUninstalled(prefix)
		}
	})
	b.Run("reachability", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cg.DAG().MinimalByReachability(complement)
		}
	})
}

// --- E11: legacy installation graph derivation ---

func BenchmarkLegacyInstallationGraph(b *testing.B) {
	pages := workload.Pages(16)
	cg := conflict.FromOps(anyShape(b, 2000, pages, 42)...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		install.LegacyFromConflict(cg)
	}
}
