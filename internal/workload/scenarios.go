package workload

import (
	"redotheory/internal/model"
)

// Scenario packages one of the paper's worked examples: the operations in
// invocation order, the initial state, and — where the paper installs a
// specific subset — the installed operation ids and the matching crash
// state, plus whether the paper deems that state recoverable.
type Scenario struct {
	// Name is the paper's label ("Scenario 1", "Figure 4", …).
	Name string
	// Note summarizes what the scenario demonstrates.
	Note string
	// Ops are the operations in invocation order.
	Ops []*model.Op
	// Initial is the initial state.
	Initial *model.State
	// Installed are the ids the scenario installs into the stable state.
	Installed []model.OpID
	// CrashState is the stable state at the crash: the initial state plus
	// the installed operations' (exposed) effects.
	CrashState *model.State
	// Recoverable is the paper's verdict on the crash state.
	Recoverable bool
}

// Scenario1 is Figure 1: A: x←y+1 then B: y←2 from x=y=0; only B's
// change reaches the state. Installing B before A violates the read-write
// edge A→B and the state is unrecoverable.
func Scenario1() Scenario {
	return Scenario{
		Name: "Scenario 1 (Figure 1)",
		Note: "read-write edges are important: installing B before A loses x forever",
		Ops: []*model.Op{
			model.CopyPlus(1, "x", "y", 1),             // A
			model.AssignConst(2, "y", model.IntVal(2)), // B
		},
		Initial:     model.NewState(),
		Installed:   []model.OpID{2},
		CrashState:  model.StateOf(map[model.Var]model.Value{"y": model.IntVal(2)}),
		Recoverable: false,
	}
}

// Scenario2 is Figure 2: B: y←2 then A: x←y+1 from x=y=0; only A's
// change reaches the state. The violated edge is write-read, which the
// installation graph drops, so replaying B recovers the state.
func Scenario2() Scenario {
	return Scenario{
		Name: "Scenario 2 (Figure 2)",
		Note: "write-read edges are unimportant: A may be installed before B",
		Ops: []*model.Op{
			model.AssignConst(1, "y", model.IntVal(2)), // B
			model.CopyPlus(2, "x", "y", 1),             // A
		},
		Initial:     model.NewState(),
		Installed:   []model.OpID{2},
		CrashState:  model.StateOf(map[model.Var]model.Value{"x": model.IntVal(3)}),
		Recoverable: true,
	}
}

// Scenario3 is Figure 3: C: ⟨x←x+1; y←y+1⟩ then D: x←y+1 from x=y=0;
// only C's change to y reaches the state. C's change to x is unexposed
// because D overwrites x without reading it, so {C} explains the state
// and replaying D recovers it.
func Scenario3() Scenario {
	return Scenario{
		Name: "Scenario 3 (Figure 3)",
		Note: "only exposed variables matter: C installs by writing y alone",
		Ops: []*model.Op{
			model.IncrBoth(1, "x", 1, "y", 1), // C
			model.CopyPlus(2, "x", "y", 1),    // D
		},
		Initial:     model.NewState(),
		Installed:   []model.OpID{1},
		CrashState:  model.StateOf(map[model.Var]model.Value{"y": model.IntVal(1)}),
		Recoverable: true,
	}
}

// Figure4 is the running example: O: x←x+1, P: y←x+1, Q: x←x+1 from
// x=1, whose conflict state graph Figure 4 draws. No specific install is
// prescribed; Installed/CrashState are empty.
func Figure4() Scenario {
	s0 := model.NewState()
	s0.SetInt("x", 1)
	return Scenario{
		Name: "Figure 4",
		Note: "conflict state graph of O, P, Q with its four prefix states",
		Ops: []*model.Op{
			model.Incr(1, "x", 1),
			model.CopyPlus(2, "y", "x", 1),
			model.Incr(3, "x", 1),
		},
		Initial:     s0,
		Recoverable: true,
	}
}

// section5EFG is the Section 5 example requiring an atomic multi-variable
// install: E: x←y+1, F: y←x+1, G: x←x+1.
func section5EFG() Scenario {
	return Scenario{
		Name: "Section 5 (E,F,G)",
		Note: "x and y must be installed atomically: E,F,G collapse to one write graph node",
		Ops: []*model.Op{
			model.CopyPlus(1, "x", "y", 1),
			model.CopyPlus(2, "y", "x", 1),
			model.Incr(3, "x", 1),
		},
		Initial:     model.NewState(),
		Recoverable: true,
	}
}

// section5HJ is the Section 5 unexposed-variable example: H: ⟨x++;y++⟩
// then J: y←0.
func section5HJ() Scenario {
	return Scenario{
		Name: "Section 5 (H,J)",
		Note: "J's blind write leaves y unexposed: H installs by writing x alone",
		Ops: []*model.Op{
			model.IncrBoth(1, "x", 1, "y", 1),
			model.AssignConst(2, "y", model.IntVal(0)),
		},
		Initial:     model.NewState(),
		Installed:   []model.OpID{1},
		CrashState:  model.StateOf(map[model.Var]model.Value{"x": model.IntVal(1)}),
		Recoverable: true,
	}
}

// figure8 is the generalized B-tree split shape: O updates old page x
// (filling it), P reads x and writes the new page y with the moved half,
// Q truncates x. Collapsing the x-writers O and Q reproduces the
// figure's write graph, whose edge from P's node forces the cache
// manager to install y before x.
func figure8() Scenario {
	return Scenario{
		Name: "Figure 8",
		Note: "generalized split: new page y must be written before old page x",
		Ops: []*model.Op{
			model.ReadWrite(1, "O:update(x)", []model.Var{"x"}, []model.Var{"x"}),
			model.ReadWrite(2, "P:split(x->y)", []model.Var{"x"}, []model.Var{"y"}),
			model.ReadWrite(3, "Q:truncate(x)", []model.Var{"x"}, []model.Var{"x"}),
		},
		Initial:     model.StateOf(map[model.Var]model.Value{"x": "full-btree-page"}),
		Recoverable: true,
	}
}

// All returns every scenario, in paper order.
func All() []Scenario {
	return []Scenario{
		Scenario1(), Scenario2(), Scenario3(),
		Figure4(), section5EFG(), section5HJ(), figure8(),
	}
}
