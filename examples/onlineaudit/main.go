// Onlineaudit: embeds the online recovery-invariant auditor in a running
// database. The auditor follows execution live — one event per logged
// operation and per page install — and answers "if we crashed right now,
// would recovery work?" after every step. The example then breaks the
// write-ahead rule on purpose and shows the continuous audit catching
// the resulting unexplainable stable state, naming the exact page.
package main

import (
	"fmt"
	"log"

	"redotheory/internal/core"
	"redotheory/internal/method"
	"redotheory/internal/workload"
)

func main() {
	healthyRun()
	fmt.Println()
	walFaultRun()
}

func healthyRun() {
	fmt.Println("== continuous audit of a healthy page-LSN system ==")
	pages := workload.Pages(4)
	s0 := workload.InitialState(pages)
	db := method.NewGenLSN(s0)
	auditor := core.NewAuditor(s0)
	db.SetInstallHook(auditor.PageInstalled)

	ops := workload.ReadManyWriteOne(12, pages, 3, 3)
	for i, op := range ops {
		if err := db.Exec(op); err != nil {
			log.Fatal(err)
		}
		if _, err := auditor.Logged(op); err != nil {
			log.Fatal(err)
		}
		if i%2 == 0 {
			db.FlushOne()
		}
		rep := auditor.Audit(db.StableState())
		status := "recoverable"
		if !rep.OK {
			status = "NOT RECOVERABLE: " + rep.Summary()
		}
		fmt.Printf("  after op %2d: %2d installed, %2d to redo — crash now is %s\n",
			i+1, len(rep.Installed), len(rep.RedoSet), status)
		if !rep.OK {
			log.Fatal("healthy run flagged")
		}
	}
	fmt.Printf("audits performed: %d, all green\n", auditor.Audits)
}

func walFaultRun() {
	fmt.Println("== the same system with the write-ahead rule broken ==")
	pages := workload.Pages(3)
	s0 := workload.InitialState(pages)
	db := method.NewPhysiological(s0)
	db.DisableWAL()
	auditor := core.NewAuditor(s0)
	db.SetInstallHook(auditor.PageInstalled)

	ops := workload.SinglePage(10, pages, 9, false)
	for _, op := range ops {
		if err := db.Exec(op); err != nil {
			log.Fatal(err)
		}
		if _, err := auditor.Logged(op); err != nil {
			log.Fatal(err)
		}
		db.FlushOne() // installs pages whose log records are still volatile
	}
	// Crash: the volatile log tail evaporates. The stable state now
	// contains effects of operations the surviving log has never heard
	// of. Audit against what actually survived.
	db.Crash()
	sv := method.Survivors(db)
	checker, err := core.NewChecker(sv.Log, s0)
	if err != nil {
		log.Fatal(err)
	}
	rep := checker.Check(sv.State, sv.Log, sv.Checkpoint, sv.Redo, sv.Analyze, true)
	fmt.Println(rep.Summary())
	if rep.OK {
		log.Fatal("WAL violation went undetected")
	}
	fmt.Println("the checker names the mis-explained page: fix the WAL coupling, not the recovery code")
}
