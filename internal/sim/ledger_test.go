package sim

import (
	"testing"

	"redotheory/internal/core"
	"redotheory/internal/method"
	"redotheory/internal/model"
	"redotheory/internal/stategraph"
	"redotheory/internal/workload"
)

// TestCheckerLedgerMatchesStateGraph pins the checker's value ledger to
// the theory: over every method, each workload shape legal for it and
// every crash point, each value a logged operation wrote in the
// checker's log-order replay equals the conflict state graph's label
// for it (stategraph.FromConflict replays the canonical linearization
// instead), and the two final states agree (Lemma 1).
func TestCheckerLedgerMatchesStateGraph(t *testing.T) {
	const n, npages = 14, 4
	pages := workload.Pages(npages)
	for _, m := range DefaultMethods() {
		shapes, err := workload.ShapesFor(m.Name)
		if err != nil {
			t.Fatal(err)
		}
		def, err := workload.ForMethod(m.Name, n, pages, 5)
		if err != nil {
			t.Fatal(err)
		}
		histories := map[string][]*model.Op{"for-method": def}
		for _, sh := range shapes {
			histories[sh.Name] = sh.Gen(n, pages, 5)
		}
		for shape, ops := range histories {
			for crash := 0; crash <= len(ops); crash++ {
				db, err := BuildCrashed(m.New, workload.InitialState(pages), ops, crash, DefaultSched(int64(crash)), nil)
				if err != nil {
					t.Fatalf("%s/%s crash=%d: %v", m.Name, shape, crash, err)
				}
				log, base := method.Survivors(db).Log, db.RecoveryBase()
				ck, err := core.NewChecker(log, base)
				if err != nil {
					t.Fatalf("%s/%s crash=%d: %v", m.Name, shape, crash, err)
				}
				sg, err := stategraph.FromConflict(ck.Conflict(), base)
				if err != nil {
					t.Fatalf("%s/%s crash=%d: %v", m.Name, shape, crash, err)
				}
				for _, r := range log.Records() {
					for _, x := range r.Op.Writes() {
						got, gok := ck.WriteValue(r.Op.ID(), x)
						want, wok := sg.WriteValue(r.Op.ID(), x)
						if !gok || !wok || got != want {
							t.Errorf("%s/%s crash=%d: op %d wrote %q: ledger %q (%v), state graph %q (%v)",
								m.Name, shape, crash, r.Op.ID(), x, got, gok, want, wok)
						}
					}
				}
				if !ck.FinalState().Equal(sg.FinalState()) {
					t.Errorf("%s/%s crash=%d: ledger final state %v, state graph %v", m.Name, shape, crash, ck.FinalState(), sg.FinalState())
				}
			}
		}
	}
}
