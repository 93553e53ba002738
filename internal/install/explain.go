package install

import (
	"fmt"

	"redotheory/internal/graph"
	"redotheory/internal/model"
)

// ValueSource supplies the values an execution wrote: the initial state,
// each operation's written values, and the final state. The conflict
// state graph (stategraph.Graph) is the canonical implementation; the
// invariant checker's log-order ledger (core.Checker) is another.
// Explanation, replay, and applicability need only these values — never
// the state graph's edges — which is what makes incremental checking
// cheap.
type ValueSource interface {
	// Initial returns (a clone of) the initial state S0.
	Initial() *model.State
	// WriteValue returns the value op wrote to x during the execution.
	WriteValue(op model.OpID, x model.Var) (model.Value, bool)
	// FinalState returns the state determined by the whole history.
	FinalState() *model.State
}

// DeterminedState returns the state determined by a prefix of the
// installation graph (Section 3.1): the final values for all variables
// written by the prefix's operations when the operations are executed in
// conflict graph order, with unwritten variables taking their initial
// values. The value labels come from the conflict state graph sg, which
// must have been generated from the same conflict graph.
func (g *Graph) DeterminedState(vs ValueSource, installed graph.Set[model.OpID]) (*model.State, error) {
	if e, bad := g.PrefixViolation(installed); bad {
		return nil, fmt.Errorf("install: installed set is not an installation graph prefix (edge %d→%d crosses it)", e[0], e[1])
	}
	s := vs.Initial()
	for _, x := range g.cg.Vars() {
		writers := g.cg.Writers(x)
		// Writers of x in the prefix form a prefix of x's writer chain
		// (write-write edges survive in the installation graph), so the
		// last chain element inside the set wrote the determined value.
		for i := len(writers) - 1; i >= 0; i-- {
			if installed.Has(writers[i]) {
				v, ok := vs.WriteValue(writers[i], x)
				if !ok {
					return nil, fmt.Errorf("install: state graph node for op %d lacks a value for %q", writers[i], x)
				}
				s.Set(x, v)
				break
			}
		}
	}
	return s, nil
}

// ExplainFailure describes why a prefix does not explain a state: either
// the installed set is not an installation prefix, or an exposed variable
// has the wrong value.
type ExplainFailure struct {
	// NotPrefix holds the crossing edge when the installed set fails the
	// prefix test; both fields are zero otherwise.
	NotPrefix    [2]model.OpID
	NotPrefixSet bool
	// Var, Got, Want identify the first exposed variable whose value in
	// the state differs from the determined value.
	Var  model.Var
	Got  model.Value
	Want model.Value
}

// Error renders the failure.
func (f *ExplainFailure) Error() string {
	if f.NotPrefixSet {
		return fmt.Sprintf("install: installed set is not an installation graph prefix (edge %d→%d crosses it)", f.NotPrefix[0], f.NotPrefix[1])
	}
	return fmt.Sprintf("install: exposed variable %q has value %q, but the installed prefix determines %q", f.Var, f.Got, f.Want)
}

// Explains checks whether the installed prefix explains the state
// (Section 3.2): the installed set is a prefix of the installation graph
// and every variable it leaves exposed has the same value in the state
// and the state determined by the prefix. Unexposed variables may hold
// anything. It returns nil on success and an *ExplainFailure otherwise.
func (g *Graph) Explains(vs ValueSource, installed graph.Set[model.OpID], state *model.State) error {
	if e, bad := g.PrefixViolation(installed); bad {
		return &ExplainFailure{NotPrefix: e, NotPrefixSet: true}
	}
	det, err := g.DeterminedState(vs, installed)
	if err != nil {
		return err
	}
	for _, x := range g.cg.Vars() {
		if !Exposed(g.cg, installed, x) {
			continue
		}
		if got, want := state.Get(x), det.Get(x); got != want {
			return &ExplainFailure{Var: x, Got: got, Want: want}
		}
	}
	// Variables never accessed by any operation must still hold their
	// initial values: they are trivially exposed and determined by S0.
	initial := vs.Initial()
	for _, x := range state.Diff(initial) {
		if len(g.cg.Writers(x)) == 0 && len(g.cg.ReadersOfVersion(x, 0)) == 0 {
			return &ExplainFailure{Var: x, Got: state.Get(x), Want: initial.Get(x)}
		}
	}
	return nil
}
