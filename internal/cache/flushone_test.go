package cache_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"redotheory/internal/core"
	"redotheory/internal/method"
	"redotheory/internal/model"
)

// TestFlushOneInstallsReferencePick drives the ordered dirty set through
// its main caller: method.Physiological's FlushOne must install the
// smallest dirty page id, the pick the scan-and-sort reference made. The
// test keeps its own dirty set from the operations it executes and the
// installs the hook reports (physiological pages carry no flush-order
// dependencies, so every dirty page can flush).
func TestFlushOneInstallsReferencePick(t *testing.T) {
	pages := make([]model.Var, 48)
	initial := model.NewState()
	for i := range pages {
		pages[i] = model.Var(fmt.Sprintf("pg%02d", i))
		initial.SetInt(pages[i], int64(i))
	}
	db := method.NewPhysiological(initial)
	dirty := make(map[model.Var]bool)
	var installed []model.Var
	db.SetInstallHook(func(id model.Var, _ core.LSN) {
		installed = append(installed, id)
		delete(dirty, id)
	})
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 4000; step++ {
		switch k := rng.Intn(10); {
		case k < 6:
			p := pages[rng.Intn(len(pages))]
			if err := db.Exec(model.ReadWrite(model.OpID(step+1), "upd", []model.Var{p}, []model.Var{p})); err != nil {
				t.Fatal(err)
			}
			dirty[p] = true
		case k < 9:
			var want []model.Var
			for p := range dirty {
				want = append(want, p)
			}
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			installed = installed[:0]
			if ok := db.FlushOne(); ok != (len(want) > 0) {
				t.Fatalf("step %d: FlushOne = %v with %d dirty pages", step, ok, len(want))
			}
			if len(want) > 0 && (len(installed) != 1 || installed[0] != want[0]) {
				t.Fatalf("step %d: FlushOne installed %v, reference order picks %q", step, installed, want[0])
			}
		default:
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
