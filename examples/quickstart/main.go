// Quickstart: build a small history, derive the conflict and installation
// graphs, install some operations into a stable state, crash, audit the
// recovery invariant, and recover.
package main

import (
	"fmt"
	"log"

	"redotheory/internal/conflict"
	"redotheory/internal/core"
	"redotheory/internal/graph"
	"redotheory/internal/install"
	"redotheory/internal/model"
	"redotheory/internal/stategraph"
)

func main() {
	// A tiny banking history over two accounts and an audit counter:
	//   deposit:  a ← a + 100
	//   transfer: b ← a (read a, blindly overwrite b's old balance)
	//   audit:    n ← n + 1
	deposit := model.Incr(1, "a", 100)
	transfer := model.CopyPlus(2, "b", "a", 0)
	audit := model.Incr(3, "n", 1)

	initial := model.StateOf(map[model.Var]model.Value{
		"a": model.IntVal(50), "b": model.IntVal(7),
	})

	// The log is the history; the conflict graph orders its conflicts.
	lg := core.NewLog()
	for _, op := range []*model.Op{deposit, transfer, audit} {
		lg.Append(op)
	}
	cg := conflict.FromOps(deposit, transfer, audit)
	ig := install.FromConflict(cg)
	sg, err := stategraph.FromConflict(cg, initial)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("final state recovery must reproduce: %v\n", sg.FinalState())

	// Install transfer's effect (b=150) but not deposit's. That violates
	// only the write-read edge deposit→transfer, which the installation
	// graph drops — so the state is explainable and recoverable.
	stable := initial.Clone()
	stable.SetInt("b", 150)
	installed := graph.NewSet[model.OpID](transfer.ID())

	if err := ig.Explains(sg, installed, stable); err != nil {
		log.Fatalf("unexpected: %v", err)
	}
	fmt.Printf("stable state %v is explained by installed set {transfer}\n", stable)

	// The checker audits the invariant end to end: given the redo test
	// recovery will use (replay everything not installed), the installed
	// set must induce an explaining prefix.
	ck, err := core.NewChecker(lg, initial)
	if err != nil {
		log.Fatal(err)
	}
	redo := func(r *core.Record, _ core.Analysis) bool {
		return !installed.Has(r.Op.ID())
	}
	rep := ck.Check(stable, lg, graph.NewSet[model.OpID](), redo, nil, true)
	fmt.Println(rep.Summary())

	// Run recovery (Figure 6) and verify.
	res, err := core.Recover(core.Survivors{State: stable.Clone(), Log: lg, Redo: redo})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovery replayed %d ops -> %v\n", len(res.Replayed), res.State)
	if !res.State.Equal(sg.FinalState()) {
		log.Fatal("recovery diverged!")
	}
	fmt.Println("recovered state matches the conflict graph's final state")
}
