// B-tree split: reproduces Section 6.4 / Figure 8. A B-tree runs on two
// recovery methods — physiological (splits physically log the moved
// half) and generalized LSN (splits log a read-old-write-new descriptor,
// and the cache manager enforces new-page-before-old-page write order).
// The example shows the careful write ordering in action, crashes with
// only the new page installed, recovers, and compares log volume.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"redotheory/internal/btree"
	"redotheory/internal/method"
	"redotheory/internal/model"
)

// stateExec reads a recovered state as a tree executor.
type stateExec struct{ s *model.State }

func (e *stateExec) Read(x model.Var) model.Value { return e.s.Get(x) }
func (e *stateExec) Exec(op *model.Op) error      { _, err := e.s.Apply(op); return err }

func main() {
	carefulWriteOrder()
	fmt.Println()
	crashMidSplit()
	fmt.Println()
	logVolume()
}

// carefulWriteOrder shows the Figure 8 constraint: after a generalized
// split, the old page cannot be flushed before the new page.
func carefulWriteOrder() {
	fmt.Println("== careful write order (Figure 8) ==")
	db := method.NewGenLSN(model.NewState())
	tr := btree.New(db, btree.GeneralizedSplit, 2, 1)
	for k := int64(1); k <= 3; k++ {
		if err := tr.Insert(k); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("inserted 1..3 with order-2 nodes: %d split(s)\n", tr.Splits)
	flushed := []model.Var{}
	for db.FlushOne() {
		// Record the install order the cache manager chose.
		for _, v := range []model.Var{"bt-root", "bt-n0001", "bt-n0002"} {
			if db.StableState().Get(v) != "" && !contains(flushed, v) {
				flushed = append(flushed, v)
			}
		}
	}
	fmt.Printf("pages reached stable storage in order: %v\n", flushed)
	fmt.Println("(new pages always precede the truncated old page)")
}

func contains(vs []model.Var, x model.Var) bool {
	for _, v := range vs {
		if v == x {
			return true
		}
	}
	return false
}

// crashMidSplit installs only the new page of a split, crashes, and
// recovers: the truncate operation replays against the intact old page.
func crashMidSplit() {
	fmt.Println("== crash with only the new page installed ==")
	db := method.NewGenLSN(model.NewState())
	tr := btree.New(db, btree.GeneralizedSplit, 4, 1)
	keys := []int64{10, 20, 30, 40, 50} // the 5th insert splits the root
	for _, k := range keys {
		if err := tr.Insert(k); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("splits: %d, log records: %d\n", tr.Splits, db.Stats().LogRecords)
	db.FlushOne() // the cache manager picks an installable page: a new one
	db.FlushLog()
	db.Crash()
	res, err := method.Recover(db)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovery replayed %d of %d records\n", len(res.Replayed), res.Examined)
	rec := btree.New(&stateExec{s: res.State}, btree.GeneralizedSplit, 4, 1)
	if err := rec.Validate(); err != nil {
		log.Fatal(err)
	}
	got, err := rec.Keys()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered tree holds %v — intact after the mid-split crash\n", got)
}

// logVolume compares split log bytes across the two strategies.
func logVolume() {
	fmt.Println("== split log volume: physiological vs generalized (E10) ==")
	rng := rand.New(rand.NewSource(11))
	keys := make([]int64, 1500)
	for i := range keys {
		keys[i] = rng.Int63n(1_000_000)
	}
	physio := method.NewPhysiological(model.NewState())
	trP := btree.New(physio, btree.PhysiologicalSplit, 32, 1)
	gen := method.NewGenLSN(model.NewState())
	trG := btree.New(gen, btree.GeneralizedSplit, 32, 1)
	for _, k := range keys {
		if err := trP.Insert(k); err != nil {
			log.Fatal(err)
		}
		if err := trG.Insert(k); err != nil {
			log.Fatal(err)
		}
	}
	pS, gS := btree.SplitLogBytes(physio.Log()), btree.SplitLogBytes(gen.Log())
	fmt.Printf("%d splits each; split-record bytes: physiological %d, generalized %d (%.1fx)\n",
		trP.Splits, pS, gS, float64(pS)/float64(gS))
	fmt.Println("the gap is the moved half of each node, which only physiological logging ships")
}
