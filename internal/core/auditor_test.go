package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"redotheory/internal/install"
	"redotheory/internal/model"
	"redotheory/internal/stategraph"
)

func TestAuditorScenario2Live(t *testing.T) {
	// Drive Scenario 2 through the auditor: log B then A, install A's
	// page first (legal), audit at each step.
	a := NewAuditor(model.NewState())
	opB := model.AssignConst(1, "y", model.IntVal(2))
	opA := model.CopyPlus(2, "x", "y", 1)
	if _, err := a.Logged(opB); err != nil {
		t.Fatal(err)
	}
	lsnA, err := a.Logged(opA)
	if err != nil {
		t.Fatal(err)
	}
	// Nothing installed: the empty stable state must be explainable.
	if rep := a.Audit(model.NewState()); !rep.OK {
		t.Fatalf("empty install rejected: %s", rep.Summary())
	}
	// Install A's page (x=3) before B's: drops only a WR edge.
	stable := model.StateOf(map[model.Var]model.Value{"x": model.IntVal(3)})
	a.PageInstalled("x", lsnA)
	rep := a.Audit(stable)
	if !rep.OK {
		t.Fatalf("WR-violating install rejected: %s", rep.Summary())
	}
	if len(rep.Installed) != 1 || !rep.Installed.Has(2) {
		t.Errorf("installed = %v, want {A}", rep.Installed)
	}
}

func TestAuditorCatchesScenario1Live(t *testing.T) {
	// Scenario 1: A reads y then B blind-writes y; installing B's page
	// while A is uninstalled crosses the RW edge and must be flagged.
	a := NewAuditor(model.NewState())
	opA := model.CopyPlus(1, "x", "y", 1)
	opB := model.AssignConst(2, "y", model.IntVal(2))
	if _, err := a.Logged(opA); err != nil {
		t.Fatal(err)
	}
	lsnB, err := a.Logged(opB)
	if err != nil {
		t.Fatal(err)
	}
	a.PageInstalled("y", lsnB)
	stable := model.StateOf(map[model.Var]model.Value{"y": model.IntVal(2)})
	rep := a.Audit(stable)
	if rep.OK {
		t.Fatal("auditor accepted the Scenario 1 install order")
	}
	if rep.Violations[0].Kind != NotPrefix {
		t.Errorf("kind = %v", rep.Violations[0].Kind)
	}
}

func TestAuditorCatchesCorruptExposedPage(t *testing.T) {
	a := NewAuditor(model.NewState())
	op := model.AssignConst(1, "p", model.IntVal(9))
	lsn, err := a.Logged(op)
	if err != nil {
		t.Fatal(err)
	}
	a.PageInstalled("p", lsn)
	// The stable state claims a different value than the operation wrote.
	rep := a.Audit(model.StateOf(map[model.Var]model.Value{"p": model.IntVal(1)}))
	if rep.OK {
		t.Fatal("corrupt installed page accepted")
	}
	if rep.Violations[0].Kind != ExposedMismatch {
		t.Errorf("kind = %v", rep.Violations[0].Kind)
	}
}

func TestAuditorMatchesOfflineChecker(t *testing.T) {
	// Differential test: the online auditor and the offline checker must
	// agree on every crash state of a random page-LSN execution. Both
	// share one report builder, so the theory gives a third opinion: the
	// installation graph's Explains over the conflict state graph. Some
	// cases corrupt one page of the stable state afterwards.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pages := []model.Var{"p0", "p1", "p2", "p3"}
		s0 := model.NewState()
		for i, p := range pages {
			s0.SetInt(p, int64(100+i))
		}
		aud := NewAuditor(s0)
		// Simulated stable state: pages get installed at random times.
		stable := s0.Clone()
		for i := 1; i <= 15; i++ {
			p := pages[rng.Intn(len(pages))]
			op := model.ReadWrite(model.OpID(i), "u", []model.Var{p}, []model.Var{p})
			lsn, err := aud.Logged(op)
			if err != nil {
				return false
			}
			if rng.Float64() < 0.4 {
				// Install this page's current version.
				v, _ := aud.WriteValue(op.ID(), p)
				stable.Set(p, v)
				aud.PageInstalled(p, lsn)
			}
		}
		corrupt := rng.Float64() < 0.3
		if corrupt {
			stable.SetInt(pages[rng.Intn(len(pages))], -1)
		}
		online := aud.Audit(stable)
		offline, err := NewChecker(aud.Log(), s0)
		if err != nil {
			return false
		}
		rep := offline.CheckInstalled(stable, online.Installed)
		cg := aud.Log().ConflictGraph()
		sg, err := stategraph.FromConflict(cg, s0)
		if err != nil {
			return false
		}
		explained := install.FromConflict(cg).Explains(sg, online.Installed, stable) == nil
		if online.OK != rep.OK || online.OK != explained {
			return false
		}
		// Uncorrupted, all three must be satisfied: installing whole
		// single-page ops keeps the page-LSN invariant by construction.
		return corrupt || online.OK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestAuditorInstalledSetDerivation(t *testing.T) {
	a := NewAuditor(model.NewState())
	op1 := model.AssignConst(1, "p", model.IntVal(1))
	op2 := model.AssignConst(2, "p", model.IntVal(2))
	l1, _ := a.Logged(op1)
	l2, _ := a.Logged(op2)
	if s := a.InstalledSet(); len(s) != 0 {
		t.Errorf("installed = %v, want empty", s)
	}
	a.PageInstalled("p", l1)
	if s := a.InstalledSet(); len(s) != 1 || !s.Has(1) {
		t.Errorf("installed = %v, want {1}", s)
	}
	a.PageInstalled("p", l2)
	if s := a.InstalledSet(); len(s) != 2 {
		t.Errorf("installed = %v, want both", s)
	}
	// LSNs never regress.
	a.PageInstalled("p", l1)
	if s := a.InstalledSet(); len(s) != 2 {
		t.Error("stale PageInstalled regressed the LSN")
	}
	if !a.FinalState().Equal(model.StateOf(map[model.Var]model.Value{"p": model.IntVal(2)})) {
		t.Error("FinalState wrong")
	}
	if a.Audits != 0 {
		t.Error("audit counter incremented without audits")
	}
}
