package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"redotheory/internal/graph"
	"redotheory/internal/install"
	"redotheory/internal/model"
)

func logOf(ops ...*model.Op) *Log {
	l := NewLog()
	for _, o := range ops {
		l.Append(o)
	}
	return l
}

func TestLogAppendAndLookup(t *testing.T) {
	a := model.Incr(1, "x", 1)
	b := model.Incr(2, "y", 1)
	l := logOf(a, b)
	if l.Len() != 2 {
		t.Fatalf("Len = %d", l.Len())
	}
	if r := l.RecordOf(1); r == nil || r.LSN != 1 {
		t.Errorf("RecordOf(1) = %+v", r)
	}
	if r := l.RecordOf(2); r == nil || r.LSN != 2 {
		t.Errorf("RecordOf(2) = %+v", r)
	}
	ops := l.Operations()
	if len(ops) != 2 || !ops.Has(1) || !ops.Has(2) {
		t.Errorf("Operations = %v", ops)
	}
}

func TestLogDuplicatePanics(t *testing.T) {
	l := logOf(model.Incr(1, "x", 1))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on duplicate log record")
		}
	}()
	l.Append(model.Incr(1, "x", 1))
}

func TestLogPrefix(t *testing.T) {
	l := logOf(model.Incr(1, "x", 1), model.Incr(2, "x", 1), model.Incr(3, "x", 1))
	p := l.Prefix(2)
	if p.Len() != 2 {
		t.Fatalf("prefix len = %d", p.Len())
	}
	if p.RecordOf(3) != nil {
		t.Error("prefix contains truncated record")
	}
	if p.Records()[1].LSN != 2 {
		t.Error("prefix must preserve LSNs")
	}
	if full := l.Prefix(99); full.Len() != 3 {
		t.Error("over-long prefix should return everything")
	}
}

func TestLogValidateAgainst(t *testing.T) {
	a := model.CopyPlus(1, "x", "y", 1) // reads y
	b := model.AssignConst(2, "y", model.IntVal(2))
	l := logOf(a, b) // A then B, conflict edge A→B (RW)
	cg := l.ConflictGraph()
	if err := l.ValidateAgainst(cg); err != nil {
		t.Errorf("self-consistent log rejected: %v", err)
	}
	// A log in the opposite order violates the conflict edge.
	rev := logOf(b, a)
	if err := rev.ValidateAgainst(cg); err == nil {
		t.Error("conflict-violating log order accepted")
	}
	// A log missing an operation is rejected.
	short := logOf(a)
	if err := short.ValidateAgainst(cg); err == nil {
		t.Error("log with missing operations accepted")
	}
}

// oracleRedo returns a redo test that replays exactly the operations
// outside the given installed set, modelling a method that knows its
// installed set precisely.
func oracleRedo(installed graph.Set[model.OpID]) RedoTest {
	return func(r *Record, _ Analysis) bool {
		return !installed.Has(r.Op.ID())
	}
}

func TestRecoverFigure6Shape(t *testing.T) {
	// O: x←x+1, P: y←x+1, Q: x←x+1 from x=1. Install {P} (installation
	// prefix), crash, recover by replaying O and Q.
	o := model.Incr(1, "x", 1)
	p := model.CopyPlus(2, "y", "x", 1)
	q := model.Incr(3, "x", 1)
	l := logOf(o, p, q)
	installed := graph.NewSet[model.OpID](2)
	state := model.StateOf(map[model.Var]model.Value{"x": model.IntVal(1), "y": model.IntVal(3)})
	res, err := Recover(state, l, graph.NewSet[model.OpID](), oracleRedo(installed), nil)
	if err != nil {
		t.Fatal(err)
	}
	if model.AsInt(res.State.Get("x")) != 3 || model.AsInt(res.State.Get("y")) != 3 {
		t.Errorf("recovered %v, want x=3 y=3", res.State)
	}
	if len(res.RedoSet()) != 2 || !res.RedoSet().Has(1) || !res.RedoSet().Has(3) {
		t.Errorf("redo set = %v, want {1,3}", res.RedoSet())
	}
	if len(res.Replayed) != 2 || res.Replayed[0] != 1 || res.Replayed[1] != 3 {
		t.Errorf("replay order = %v, want [1 3]", res.Replayed)
	}
	if res.Examined != 3 {
		t.Errorf("examined = %d, want 3", res.Examined)
	}
}

func TestRecoverHonorsCheckpoint(t *testing.T) {
	o := model.Incr(1, "x", 1)
	p := model.Incr(2, "x", 1)
	l := logOf(o, p)
	// Checkpoint covers O: recovery must not even examine it.
	state := model.StateOf(map[model.Var]model.Value{"x": model.IntVal(1)})
	res, err := Recover(state, l, graph.NewSet[model.OpID](1),
		func(*Record, Analysis) bool { return true }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Examined != 1 {
		t.Errorf("examined = %d, want 1", res.Examined)
	}
	if model.AsInt(res.State.Get("x")) != 2 {
		t.Errorf("x = %d, want 2", model.AsInt(res.State.Get("x")))
	}
	if !res.Installed().Has(1) {
		t.Error("checkpointed op not in installed set")
	}
}

func TestAnalysisPhaseThreading(t *testing.T) {
	// The run-once contract of Section 4.3: each recovery loop invokes
	// the analysis exactly once, with the checkpoint it was run with,
	// and every redo test sees that one value; a nil analysis function
	// is never invoked and the redo tests see nil.
	l := logOf(model.Incr(1, "x", 1), model.Incr(2, "x", 1), model.Incr(3, "x", 1), model.Incr(4, "x", 1))
	checkpoint := graph.NewSet[model.OpID](1)
	loops := map[string]func(RedoTest, AnalyzeFunc){
		"Recover": func(redo RedoTest, analyze AnalyzeFunc) {
			if _, err := Recover(model.NewState(), l, checkpoint, redo, analyze); err != nil {
				t.Fatal(err)
			}
		},
		"RecoverDense": func(redo RedoTest, analyze AnalyzeFunc) {
			if _, err := RecoverDense(nil, model.NewState(), l, checkpoint, redo, analyze); err != nil {
				t.Fatal(err)
			}
		},
		"DecideRedo": func(redo RedoTest, analyze AnalyzeFunc) {
			DecideRedo(model.NewState(), l, checkpoint, redo, analyze)
		},
	}
	for name, run := range loops {
		calls := 0
		analyze := func(_ *model.State, log *Log, ck graph.Set[model.OpID]) Analysis {
			calls++
			if log != l || len(ck) != 1 || !ck.Has(1) {
				t.Errorf("%s: analysis got log %p checkpoint %v, want the ones recovery was run with", name, log, ck)
			}
			return "the-analysis"
		}
		var seen []Analysis
		redo := func(_ *Record, a Analysis) bool {
			if calls != 1 {
				t.Errorf("%s: redo test ran with %d analysis calls made, want 1", name, calls)
			}
			seen = append(seen, a)
			return true
		}
		run(redo, analyze)
		if calls != 1 {
			t.Errorf("%s: analysis calls = %d, want 1", name, calls)
		}
		if len(seen) != 3 {
			t.Errorf("%s: redo test ran %d times, want 3", name, len(seen))
		}
		for _, a := range seen {
			if a != "the-analysis" {
				t.Errorf("%s: redo test saw analysis %v", name, a)
			}
		}

		run(func(_ *Record, a Analysis) bool {
			if a != nil {
				t.Errorf("%s: nil analysis function, yet redo test saw %v", name, a)
			}
			return true
		}, nil)
	}
}

func TestCorollary4Property(t *testing.T) {
	// Corollary 4: with any redo set whose complement is an explaining
	// installation prefix, recover terminates with the final state.
	// Random histories, random installation prefixes, junk in unexposed
	// variables, and a random split of the installed set between the
	// checkpoint and redo-test-filtered operations.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := randomOps(rng, 14, 4)
		l := logOf(ops...)
		s0 := randomState(rng, 4)
		ck, err := NewChecker(l, s0)
		if err != nil {
			return false
		}
		installed := randomPrefixOf(rng, ck.Install().DAG())
		state, err := ck.Install().DeterminedState(ck.sg, installed)
		if err != nil {
			return false
		}
		for _, x := range install.UnexposedVars(ck.Conflict(), installed) {
			state.SetInt(x, rng.Int63n(1<<40)+13)
		}
		// Split installed between checkpoint and redo-test knowledge.
		checkpoint := graph.NewSet[model.OpID]()
		for id := range installed {
			if rng.Float64() < 0.5 {
				checkpoint.Add(id)
			}
		}
		res, err := Recover(state, l, checkpoint, oracleRedo(installed), nil)
		if err != nil {
			return false
		}
		return res.State.Equal(ck.FinalState())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCheckerScenario1Violation(t *testing.T) {
	// Figure 1: installing only B violates the RW edge A→B.
	a := model.CopyPlus(1, "x", "y", 1)
	b := model.AssignConst(2, "y", model.IntVal(2))
	l := logOf(a, b)
	ck, err := NewChecker(l, model.NewState())
	if err != nil {
		t.Fatal(err)
	}
	state := model.StateOf(map[model.Var]model.Value{"y": model.IntVal(2)})
	rep := ck.CheckInstalled(state, graph.NewSet[model.OpID](2))
	if rep.OK {
		t.Fatal("checker accepted Scenario 1")
	}
	if rep.Violations[0].Kind != NotPrefix {
		t.Errorf("kind = %v, want NotPrefix", rep.Violations[0].Kind)
	}
	if rep.Violations[0].Edge != [2]model.OpID{1, 2} {
		t.Errorf("edge = %v, want 1→2", rep.Violations[0].Edge)
	}
	if !strings.Contains(rep.Summary(), "VIOLATED") {
		t.Errorf("summary = %q", rep.Summary())
	}
}

func TestCheckerScenario2OK(t *testing.T) {
	b := model.AssignConst(1, "y", model.IntVal(2))
	a := model.CopyPlus(2, "x", "y", 1)
	l := logOf(b, a)
	ck, err := NewChecker(l, model.NewState())
	if err != nil {
		t.Fatal(err)
	}
	state := model.StateOf(map[model.Var]model.Value{"x": model.IntVal(3)})
	rep := ck.CheckInstalled(state, graph.NewSet[model.OpID](2))
	if !rep.OK {
		t.Errorf("checker rejected Scenario 2: %s", rep.Summary())
	}
	if !strings.Contains(rep.Summary(), "HOLDS") {
		t.Errorf("summary = %q", rep.Summary())
	}
}

func TestCheckerExposedMismatch(t *testing.T) {
	// Install nothing but corrupt an exposed variable.
	o := model.Incr(1, "x", 1)
	l := logOf(o)
	ck, err := NewChecker(l, model.NewState())
	if err != nil {
		t.Fatal(err)
	}
	state := model.StateOf(map[model.Var]model.Value{"x": model.IntVal(42)})
	rep := ck.CheckInstalled(state, graph.NewSet[model.OpID]())
	if rep.OK {
		t.Fatal("corrupt exposed variable accepted")
	}
	v := rep.Violations[0]
	if v.Kind != ExposedMismatch || v.Var != "x" || model.AsInt(v.Got) != 42 || model.AsInt(v.Want) != 0 {
		t.Errorf("violation = %+v", v)
	}
}

func TestCheckerEndToEnd(t *testing.T) {
	// Full Check: a correct redo test passes with verifyEnd; a broken one
	// (skips a needed operation) is caught.
	o := model.Incr(1, "x", 1)
	p := model.CopyPlus(2, "y", "x", 1)
	l := logOf(o, p)
	ck, err := NewChecker(l, model.NewState())
	if err != nil {
		t.Fatal(err)
	}
	empty := graph.NewSet[model.OpID]()
	state := model.NewState()
	good := ck.Check(state, l, empty, oracleRedo(empty), nil, true)
	if !good.OK {
		t.Errorf("good redo test rejected: %s", good.Summary())
	}
	broken := func(r *Record, _ Analysis) bool {
		return r.Op.ID() != 1 // never redoes O, though nothing is installed
	}
	bad := ck.Check(state, l, empty, broken, nil, true)
	if bad.OK {
		t.Error("broken redo test accepted")
	}
	foundMismatch := false
	for _, v := range bad.Violations {
		if v.Kind == ExposedMismatch || v.Kind == RecoveryDiverged {
			foundMismatch = true
		}
	}
	if !foundMismatch {
		t.Errorf("violations = %v", bad.Violations)
	}
}

func TestCheckerLogInconsistent(t *testing.T) {
	a := model.CopyPlus(1, "x", "y", 1)
	b := model.AssignConst(2, "y", model.IntVal(2))
	ck, err := NewChecker(logOf(a, b), model.NewState())
	if err != nil {
		t.Fatal(err)
	}
	rev := logOf(b, a)
	rep := ck.Check(model.NewState(), rev, graph.NewSet[model.OpID](),
		func(*Record, Analysis) bool { return true }, nil, false)
	if rep.OK || rep.Violations[0].Kind != LogInconsistent {
		t.Errorf("report = %s", rep.Summary())
	}
}

func TestCheckerPropertyRandomInstalledSets(t *testing.T) {
	// For random (not necessarily prefix) installed sets with the
	// corresponding state built faithfully when possible, the checker's
	// verdict must agree with the definition: prefix + exposed agreement.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := randomOps(rng, 12, 4)
		l := logOf(ops...)
		s0 := randomState(rng, 4)
		ck, err := NewChecker(l, s0)
		if err != nil {
			return false
		}
		// Random subset of operations, prefix or not.
		installed := graph.NewSet[model.OpID]()
		for _, id := range ck.Conflict().OpIDs() {
			if rng.Float64() < 0.5 {
				installed.Add(id)
			}
		}
		isPrefix := ck.Install().IsPrefix(installed)
		var state *model.State
		if isPrefix {
			state, err = ck.Install().DeterminedState(ck.sg, installed)
			if err != nil {
				return false
			}
		} else {
			state = s0.Clone()
		}
		rep := ck.CheckInstalled(state, installed)
		if !isPrefix {
			// Non-prefix sets must always be rejected with NotPrefix.
			return !rep.OK && rep.Violations[0].Kind == NotPrefix
		}
		return rep.OK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestViolationKindString(t *testing.T) {
	kinds := map[ViolationKind]string{
		LogInconsistent:   "log-inconsistent",
		NotPrefix:         "not-a-prefix",
		ExposedMismatch:   "exposed-mismatch",
		RecoveryDiverged:  "recovery-diverged",
		ViolationKind(99): "ViolationKind(99)",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

// --- helpers ---

func randomOps(rng *rand.Rand, n, k int) []*model.Op {
	vars := make([]model.Var, k)
	for i := range vars {
		vars[i] = model.Var(string(rune('a' + i)))
	}
	ops := make([]*model.Op, n)
	for i := range ops {
		var reads, writes []model.Var
		for _, v := range vars {
			if rng.Float64() < 0.3 {
				reads = append(reads, v)
			}
			if rng.Float64() < 0.25 {
				writes = append(writes, v)
			}
		}
		if len(writes) == 0 {
			writes = append(writes, vars[rng.Intn(k)])
		}
		ops[i] = model.ReadWrite(model.OpID(i+1), "w", reads, writes)
	}
	return ops
}

func randomState(rng *rand.Rand, k int) *model.State {
	s := model.NewState()
	for i := 0; i < k; i++ {
		if rng.Float64() < 0.7 {
			s.SetInt(model.Var(string(rune('a'+i))), rng.Int63n(100))
		}
	}
	return s
}

func randomPrefixOf(rng *rand.Rand, dag *graph.Graph[model.OpID]) graph.Set[model.OpID] {
	order, err := dag.TopoOrder()
	if err != nil {
		panic(err)
	}
	s := graph.NewSet[model.OpID]()
	for _, k := range order {
		ok := true
		for _, p := range dag.Preds(k) {
			if !s.Has(p) {
				ok = false
				break
			}
		}
		if ok && rng.Float64() < 0.6 {
			s.Add(k)
		}
	}
	return s
}
