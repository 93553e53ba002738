// Media fault: the robustness story. The paper's recovery procedure
// assumes the stable log and pages are exactly what was forced; this
// example breaks that assumption four ways — page bit-rot, a torn log
// tail, a lost page write under a reading redo test, and a crash inside
// recovery itself — and shows each one detected by integrity metadata
// and survived by degraded recovery (truncate to the last trustworthy
// record, fall back to the recovery base, replay the surviving log in
// order; Lemma 1 is why the replay is correct). It closes with a small
// campaign: methods × fault kinds × crash points, zero silent
// corruption.
package main

import (
	"fmt"
	"log"

	"redotheory/internal/fault"
	"redotheory/internal/method"
	"redotheory/internal/model"
	"redotheory/internal/sim"
	"redotheory/internal/workload"
)

func main() {
	pageBitRot()
	fmt.Println()
	tornTail()
	fmt.Println()
	lostWrite()
	fmt.Println()
	crashInRecovery()
	fmt.Println()
	miniCampaign()
}

// run executes n single-page ops on db and forces the log; installAll
// additionally installs every page (tagging pages at the newest LSNs).
func run(db method.DB, ps []model.Var, n int, installAll bool) {
	for i := 1; i <= n; i++ {
		p := ps[(i-1)%len(ps)]
		if err := db.Exec(model.ReadWrite(model.OpID(i), "upd", []model.Var{p}, []model.Var{p})); err != nil {
			log.Fatal(err)
		}
	}
	db.FlushLog()
	if installAll {
		for db.FlushOne() {
		}
	} else {
		db.FlushOne()
	}
}

func report(res *method.DegradedResult) {
	for _, d := range res.Detections {
		fmt.Printf("  detected %-16s %s\n", d.Code+":", d.Detail)
	}
	switch {
	case res.Unrecoverable:
		fmt.Println("  outcome: unrecoverable — committed work is provably lost, no state returned")
	case res.Degraded:
		fmt.Printf("  outcome: degraded recovery, %d pages quarantined and rewritten, audit ok=%v\n",
			len(res.Quarantined), res.Audit.OK)
	default:
		fmt.Printf("  outcome: clean fast path, audit ok=%v\n", res.Audit.OK)
	}
}

func pageBitRot() {
	fmt.Println("== page bit-rot: the checksum catches what the page-LSN test cannot ==")
	ps := workload.Pages(3)
	db := method.NewPhysiological(workload.InitialState(ps))
	run(db, ps, 6, true)
	db.Crash()
	db.Store().CorruptPage(ps[0])
	res, err := method.RecoverDegraded(db, method.RunToCompletion())
	if err != nil {
		log.Fatal(err)
	}
	report(res)
	if bad := db.Store().VerifyAll(); len(bad) == 0 {
		fmt.Println("  after repair every page re-verifies")
	}
}

func tornTail() {
	fmt.Println("== torn log tail: the chained tail anchor proves records are missing ==")
	ps := workload.Pages(3)
	db := method.NewPhysiological(workload.InitialState(ps))
	run(db, ps, 6, false)
	db.Crash()
	n := db.WAL().TearStableTail(2)
	fmt.Printf("  %d forced records torn off the stable log by the crash\n", n)
	res, err := method.RecoverDegraded(db, method.RunToCompletion())
	if err != nil {
		log.Fatal(err)
	}
	report(res)
	fmt.Printf("  log truncated to its last trustworthy record (now %d records)\n", db.StableLog().Len())
}

func lostWrite() {
	fmt.Println("== lost write under genlsn: the careful-write-order audit ==")
	// genlsn's redo test re-reads the recovering state, which is only
	// sound if page installs respected the read-write dependencies. A
	// lost write reverts a prerequisite page — checksum-valid, above
	// every scalar floor — and only replaying the log's read sets as
	// install-order constraints exposes it.
	ps := workload.Pages(2)
	s0 := workload.InitialState(ps)
	db := method.NewGenLSN(s0)
	ops := []*model.Op{
		model.ReadWrite(1, "u", []model.Var{ps[0]}, []model.Var{ps[0]}),
		model.ReadWrite(2, "u", []model.Var{ps[0], ps[1]}, []model.Var{ps[1]}),
		model.ReadWrite(3, "u", []model.Var{ps[0]}, []model.Var{ps[0]}),
	}
	for _, op := range ops {
		if err := db.Exec(op); err != nil {
			log.Fatal(err)
		}
	}
	db.FlushLog()
	for db.FlushOne() {
	}
	db.Crash()
	db.Store().Write(ps[1], s0.Get(ps[1]), 0) // the disk lied: old version survived
	res, err := method.RecoverDegraded(db, method.RunToCompletion())
	if err != nil {
		log.Fatal(err)
	}
	report(res)
}

func crashInRecovery() {
	fmt.Println("== crash during recovery: the repair-in-progress mark forces a rerun to stay conservative ==")
	ps := workload.Pages(3)
	db := method.NewPhysiological(workload.InitialState(ps))
	run(db, ps, 6, false)
	db.Crash()
	db.WAL().TearStableTail(1)
	first, err := method.RecoverDegraded(db, method.DegradedOptions{AbortAfterRepairs: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  first attempt aborted mid-repair after 1 page write (aborted=%v)\n", first.Aborted)
	second, err := method.RecoverDegraded(db, method.RunToCompletion())
	if err != nil {
		log.Fatal(err)
	}
	report(second)
}

func miniCampaign() {
	fmt.Println("== campaign: every method x every fault kind ==")
	methods := []sim.NamedFactory{
		{Name: "logical", New: func(s *model.State) method.DB { return method.NewLogical(s) }},
		{Name: "physiological", New: func(s *model.State) method.DB { return method.NewPhysiological(s) }},
		{Name: "genlsn", New: func(s *model.State) method.DB { return method.NewGenLSN(s) }},
		{Name: "grouplsn", New: func(s *model.State) method.DB { return method.NewGroupLSN(s) }},
	}
	results, err := sim.Campaign(sim.Grid{
		Methods: methods, Ops: 10, Pages: 4,
		CrashPoints: []int{5, 10}, Seeds: []int64{1, 2},
	}, fault.Kinds(), 0.5)
	if err != nil {
		log.Fatal(err)
	}
	sum := sim.SummarizeCampaign(results)
	fmt.Printf("  %d runs: %d exact, %d degraded, %d unrecoverable, %d not fired\n",
		sum.Runs, sum.ByOutcome[sim.RecoveredExact], sum.ByOutcome[sim.RecoveredDegraded],
		sum.ByOutcome[sim.DetectedUnrecoverable], sum.ByOutcome[sim.FaultNotFired])
	if sum.Silent == 0 {
		fmt.Println("  silent corruption: 0 — every fault was repaired, degraded, or detected")
	} else {
		log.Fatalf("silent corruption: %d", sum.Silent)
	}
}
