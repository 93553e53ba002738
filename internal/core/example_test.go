package core_test

import (
	"fmt"

	"redotheory/internal/core"
	"redotheory/internal/graph"
	"redotheory/internal/model"
)

// ExampleRecover runs the paper's Figure 6 procedure over a three-op
// history with the middle operation installed: the redo test skips it
// and recovery rebuilds the final state.
func ExampleRecover() {
	o := model.Incr(1, "x", 1)          // O: x←x+1
	p := model.CopyPlus(2, "y", "x", 1) // P: y←x+1
	q := model.Incr(3, "x", 1)          // Q: x←x+1

	log := core.NewLog()
	for _, op := range []*model.Op{o, p, q} {
		log.Append(op)
	}
	// Crash state: only P installed (x still initial 1, y=3).
	state := model.StateOf(map[model.Var]model.Value{
		"x": model.IntVal(1), "y": model.IntVal(3),
	})
	installed := graph.NewSet[model.OpID](p.ID())
	redo := func(r *core.Record, _ core.Analysis) bool {
		return !installed.Has(r.Op.ID())
	}
	res, err := core.Recover(core.Survivors{State: state, Log: log, Redo: redo})
	if err != nil {
		panic(err)
	}
	fmt.Println("replayed:", len(res.RedoSet()))
	fmt.Println("state:", res.State)
	// Output:
	// replayed: 2
	// state: {x=3 y=3}
}

// ExampleChecker audits the Recovery Invariant for the unrecoverable
// Scenario 1 configuration and prints the diagnosis.
func ExampleChecker() {
	a := model.CopyPlus(1, "x", "y", 1)
	b := model.AssignConst(2, "y", model.IntVal(2))
	log := core.NewLog()
	log.Append(a)
	log.Append(b)
	ck, err := core.NewChecker(log, model.NewState())
	if err != nil {
		panic(err)
	}
	state := model.StateOf(map[model.Var]model.Value{"y": model.IntVal(2)})
	rep := ck.CheckInstalled(state, graph.NewSet[model.OpID](b.ID()))
	fmt.Println(rep.Summary())
	// Output:
	// recovery invariant VIOLATED (1 installed, 1 to redo):
	//   - [not-a-prefix] operation 2 is installed but its installation-graph predecessor 1 is not (RW conflict)
}

// ExampleAuditor feeds the online auditor a two-op history and installs
// the pages in a legal order.
func ExampleAuditor() {
	aud := core.NewAuditor(model.NewState())
	opB := model.AssignConst(1, "y", model.IntVal(2))
	opA := model.CopyPlus(2, "x", "y", 1)
	if _, err := aud.Logged(opB); err != nil {
		panic(err)
	}
	lsnA, err := aud.Logged(opA)
	if err != nil {
		panic(err)
	}
	aud.PageInstalled("x", lsnA)
	stable := model.StateOf(map[model.Var]model.Value{"x": model.IntVal(3)})
	fmt.Println(aud.Audit(stable).Summary())
	// Output:
	// recovery invariant HOLDS: 1 installed, 1 to redo
}
