package method

import (
	"math/rand"
	"testing"

	"redotheory/internal/core"
	"redotheory/internal/workload"
)

// TestRedoTestsArePure holds the four page-LSN redo tests to the kernel
// contract pipelined recovery relies on (DESIGN.md §1.1.1): a verdict is
// a function of the record and the analysis alone. For every method ×
// workload shape × crash point, one test instance is run over the
// unrecovered records in log order, then asked again about every record,
// then asked in a shuffled order; all three must agree record for record.
// A test that updates its page-LSN table on admit fails the second call.
func TestRedoTestsArePure(t *testing.T) {
	pages := workload.Pages(5)
	for _, f := range parallelFactories {
		switch f.name {
		case "physiological", "physiological+dpt", "genlsn", "grouplsn":
		default:
			continue
		}
		shapes, err := workload.ShapesFor(f.name)
		if err != nil {
			t.Fatal(err)
		}
		for _, shape := range shapes {
			f, shape := f, shape
			t.Run(f.name+"/"+shape.Name, func(t *testing.T) {
				admitted := 0
				for seed := int64(1); seed <= 2; seed++ {
					ops := shape.Gen(24, pages, seed)
					for crash := 0; crash <= len(ops); crash += 3 {
						db := crashedDB(t, f.mk, ops, workload.InitialState(pages), crash, seed*31+int64(crash))
						state, log, ckpt := db.StableState(), db.StableLog(), db.Checkpointed()
						var analysis core.Analysis
						if analyze := db.Analyze(); analyze != nil {
							analysis = analyze(state, log, ckpt)
						}
						var recs []*core.Record
						for _, r := range log.Records() {
							if !ckpt.Has(r.Op.ID()) {
								recs = append(recs, r)
							}
						}
						redo := db.RedoTest()
						want := make(map[*core.Record]bool, len(recs))
						for _, r := range recs {
							want[r] = redo(r, analysis)
							if want[r] {
								admitted++
							}
						}
						check := func(how string, order []*core.Record) {
							for _, r := range order {
								if got := redo(r, analysis); got != want[r] {
									t.Fatalf("seed=%d crash=%d: %s verdict on LSN %d is %v, in-order verdict %v", seed, crash, how, r.LSN, got, want[r])
								}
							}
						}
						check("second-call", recs)
						shuffled := append([]*core.Record(nil), recs...)
						rand.New(rand.NewSource(seed+int64(crash))).Shuffle(len(shuffled), func(i, j int) {
							shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
						})
						check("shuffled", shuffled)
					}
				}
				if admitted == 0 {
					t.Fatal("no record was admitted: the grid exercises nothing")
				}
			})
		}
	}
}
