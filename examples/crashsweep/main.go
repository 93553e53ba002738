// Crashsweep: the E9 experiment as an example — run each of the four
// Section 6 recovery methods over a workload, crash at every point, and
// verify (a) recovery reproduces the stable log's state and (b) the
// recovery invariant held at the crash.
package main

import (
	"fmt"
	"log"

	"redotheory/internal/method"
	"redotheory/internal/model"
	"redotheory/internal/sim"
	"redotheory/internal/workload"
)

func main() {
	pages := workload.Pages(6)
	factories := []sim.NamedFactory{
		{Name: "logical", New: func(s *model.State) method.DB { return method.NewLogical(s) }},
		{Name: "physical", New: func(s *model.State) method.DB { return method.NewPhysical(s) }},
		{Name: "physiological", New: func(s *model.State) method.DB { return method.NewPhysiological(s) }},
		{Name: "genlsn", New: func(s *model.State) method.DB { return method.NewGenLSN(s) }},
	}
	for _, f := range factories {
		ops, err := workload.ForMethod(f.Name, 30, pages, 5)
		if err != nil {
			log.Fatal(err)
		}
		results, err := sim.Sweep(f, ops, len(pages), 77, 0, nil)
		if err != nil {
			log.Fatal(err)
		}
		s := sim.Summarize(results)
		fmt.Printf("%-14s crash points %2d: recovered %2d, invariant held %2d, total replayed %3d\n",
			f.Name, s.Runs, s.Recovered, s.InvariantOK, s.Replayed)
		if s.Recovered != s.Runs || s.InvariantOK != s.Runs {
			log.Fatalf("%s failed a crash point", f.Name)
		}
	}
	fmt.Println("\nall methods recover at every crash point; the invariant is the reason why")
}
