package core

import (
	"fmt"
	"strings"

	"redotheory/internal/conflict"
	"redotheory/internal/graph"
	"redotheory/internal/install"
	"redotheory/internal/model"
	"redotheory/internal/obs"
	"redotheory/internal/stategraph"
)

// Report is the invariant checker's verdict on one system configuration.
type Report struct {
	// OK is true when the Recovery Invariant holds: the installed set
	// operations(log) − redo_set induces a prefix of the installation
	// graph that explains the state.
	OK bool
	// Installed is the audited installed set.
	Installed graph.Set[model.OpID]
	// RedoSet is the redo set the recovery procedure would choose.
	RedoSet graph.Set[model.OpID]
	// Violations lists everything found wrong, most fundamental first.
	Violations []Violation
}

// ViolationKind classifies invariant violations.
type ViolationKind int

const (
	// LogInconsistent: the log order contradicts the conflict order, or
	// the logged operations differ from the graph's (Section 4.1).
	LogInconsistent ViolationKind = iota
	// NotPrefix: the installed set is not an installation graph prefix —
	// some uninstalled operation precedes an installed one in the
	// installation graph (a Scenario 1 situation).
	NotPrefix
	// ExposedMismatch: an exposed variable's value differs from the value
	// the installed prefix determines (a lost or phantom update).
	ExposedMismatch
	// RecoveryDiverged: simulated recovery did not reach the final state
	// (reported when the checker is asked to verify end-to-end).
	RecoveryDiverged
)

// String names the kind.
func (k ViolationKind) String() string {
	switch k {
	case LogInconsistent:
		return "log-inconsistent"
	case NotPrefix:
		return "not-a-prefix"
	case ExposedMismatch:
		return "exposed-mismatch"
	case RecoveryDiverged:
		return "recovery-diverged"
	default:
		return fmt.Sprintf("ViolationKind(%d)", int(k))
	}
}

// Violation describes one way the invariant fails, with enough detail to
// debug the responsible component (cache manager, checkpointer, redo
// test…).
type Violation struct {
	Kind ViolationKind
	// Edge is the installation graph edge crossing the installed set
	// (NotPrefix), as uninstalled→installed operation ids.
	Edge [2]model.OpID
	// Var, Got, Want describe an exposed-variable mismatch.
	Var  model.Var
	Got  model.Value
	Want model.Value
	// Detail is a human-readable explanation.
	Detail string
}

// String renders the violation.
func (v Violation) String() string { return fmt.Sprintf("[%s] %s", v.Kind, v.Detail) }

// Summary renders the report for humans.
func (r *Report) Summary() string {
	if r.OK {
		return fmt.Sprintf("recovery invariant HOLDS: %d installed, %d to redo", len(r.Installed), len(r.RedoSet))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "recovery invariant VIOLATED (%d installed, %d to redo):\n", len(r.Installed), len(r.RedoSet))
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  - %s\n", v)
	}
	return strings.TrimRight(b.String(), "\n")
}

// Checker audits the Recovery Invariant for one log's worth of history.
// Build it once per conflict graph and reuse it across configurations.
type Checker struct {
	cg *conflict.Graph
	ig *install.Graph
	sg *stategraph.Graph
}

// NewChecker builds a checker for the history recorded in the log,
// executed from the given initial state. The log supplies both the
// operation set and (via Lemma 1) the conflict graph; the conflict and
// installation graphs come from DefaultGraphs, so repeated analysis of
// the same log prefix (degraded recovery's audit passes, campaign
// re-checks) reuses one construction. Only the state graph, which also
// depends on the initial state, is built per checker.
func NewChecker(log *Log, initial *model.State) (*Checker, error) {
	return NewCheckerObserved(log, initial, nil)
}

// NewCheckerObserved is NewChecker with cache-effectiveness telemetry:
// the graph-cache lookup is counted on the recorder (MGraphHits /
// MGraphMisses). A nil recorder makes it exactly NewChecker.
func NewCheckerObserved(log *Log, initial *model.State, rec *obs.Recorder) (*Checker, error) {
	cg, ig := DefaultGraphs.GraphsObserved(log, rec)
	sg, err := stategraph.FromConflict(cg, initial)
	if err != nil {
		return nil, fmt.Errorf("core: building state graph: %w", err)
	}
	return &Checker{cg: cg, ig: ig, sg: sg}, nil
}

// Conflict returns the checker's conflict graph.
func (c *Checker) Conflict() *conflict.Graph { return c.cg }

// Install returns the checker's installation graph.
func (c *Checker) Install() *install.Graph { return c.ig }

// FinalState returns the state recovery must reconstruct.
func (c *Checker) FinalState() *model.State { return c.sg.FinalState() }

// CheckInstalled audits the invariant for an explicitly given installed
// set: it must induce a prefix of the installation graph that explains
// the state. All violations found are reported, not just the first.
func (c *Checker) CheckInstalled(state *model.State, installed graph.Set[model.OpID]) *Report {
	rep := &Report{Installed: installed.Clone(), RedoSet: complementOf(c.cg, installed)}
	if e, bad := c.ig.PrefixViolation(installed); bad {
		rep.Violations = append(rep.Violations, Violation{
			Kind: NotPrefix,
			Edge: e,
			Detail: fmt.Sprintf("operation %d is installed but its installation-graph predecessor %d is not (%s conflict)",
				e[1], e[0], c.cg.Kind(e[0], e[1])),
		})
	} else {
		det, err := c.ig.DeterminedState(c.sg, installed)
		if err != nil {
			rep.Violations = append(rep.Violations, Violation{Kind: NotPrefix, Detail: err.Error()})
		} else {
			for _, x := range c.cg.Vars() {
				if !install.Exposed(c.cg, installed, x) {
					continue
				}
				if got, want := state.Get(x), det.Get(x); got != want {
					rep.Violations = append(rep.Violations, Violation{
						Kind: ExposedMismatch, Var: x, Got: got, Want: want,
						Detail: fmt.Sprintf("exposed variable %q holds %q but the installed prefix determines %q", x, got, want),
					})
				}
			}
			// Variables no logged operation ever accesses are trivially
			// exposed and must still hold their initial values: a
			// mismatch means the state contains effects of operations
			// missing from the log (the write-ahead-log failure shape).
			initial := c.sg.Initial()
			for _, x := range state.Diff(initial) {
				if len(c.cg.Writers(x)) == 0 && len(c.cg.ReadersOfVersion(x, 0)) == 0 {
					rep.Violations = append(rep.Violations, Violation{
						Kind: ExposedMismatch, Var: x, Got: state.Get(x), Want: initial.Get(x),
						Detail: fmt.Sprintf("variable %q holds %q but no logged operation writes it (initial value %q); its update's log record is missing", x, state.Get(x), initial.Get(x)),
					})
				}
			}
		}
	}
	rep.OK = len(rep.Violations) == 0
	return rep
}

// Check audits the full Recovery Invariant at a hypothetical crash point:
// given the stable state, the (stable) log, the checkpoint, and the
// method's redo test and analysis function, it runs the recovery
// procedure once on a clone to learn redo_set, then verifies that
// operations(log) − redo_set induces an explaining prefix. With verifyEnd
// set it also confirms that run's final state. One run serves both: the
// replay that learns redo_set is the replay whose end state is checked.
func (c *Checker) Check(state *model.State, log *Log, checkpoint graph.Set[model.OpID], redo RedoTest, analyze AnalyzeFunc, verifyEnd bool) *Report {
	if err := log.ValidateAgainst(c.cg); err != nil {
		return &Report{Violations: []Violation{{Kind: LogInconsistent, Detail: err.Error()}}}
	}
	res, err := Recover(state.Clone(), log, checkpoint, redo, analyze)
	if err != nil {
		return &Report{Violations: []Violation{{Kind: RecoveryDiverged, Detail: err.Error()}}}
	}
	redoSet := res.RedoSet()
	rep := c.CheckInstalled(state, complementOf(c.cg, redoSet))
	rep.RedoSet = redoSet
	if verifyEnd && !res.State.Equal(c.FinalState()) {
		rep.Violations = append(rep.Violations, Violation{
			Kind: RecoveryDiverged,
			Detail: fmt.Sprintf("recovery ended in %v, want %v (diff: %v)",
				res.State, c.FinalState(), res.State.Diff(c.FinalState())),
		})
		rep.OK = false
	}
	return rep
}

// complementOf returns the conflict graph's operations minus the given
// set.
func complementOf(cg *conflict.Graph, s graph.Set[model.OpID]) graph.Set[model.OpID] {
	out := graph.NewSet[model.OpID]()
	for _, id := range cg.OpIDs() {
		if !s.Has(id) {
			out.Add(id)
		}
	}
	return out
}
