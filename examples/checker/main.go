// Checker: uses the recovery-invariant checker as a recovery auditor.
// It shows a healthy configuration passing, then three distinct
// failure modes being caught with precise diagnoses: a cache manager
// that installs out of installation-graph order (Scenario 1), a torn
// multi-variable installation (Section 5's E,F,G), and a redo test that
// skips a needed operation.
package main

import (
	"fmt"
	"log"

	"redotheory/internal/core"
	"redotheory/internal/graph"
	"redotheory/internal/model"
	"redotheory/internal/trace"
)

func main() {
	healthy()
	fmt.Println()
	badWriteOrder()
	fmt.Println()
	tornInstall()
	fmt.Println()
	brokenRedoTest()
}

func audit(t *trace.Trace) *core.Report {
	ops, initial, state, installed, err := t.Materialize()
	if err != nil {
		log.Fatal(err)
	}
	lg := core.NewLog()
	for _, op := range ops {
		lg.Append(op)
	}
	ck, err := core.NewChecker(lg, initial)
	if err != nil {
		log.Fatal(err)
	}
	return ck.CheckInstalled(state, installed)
}

func healthy() {
	fmt.Println("== healthy: Scenario 2's write-read violation is fine ==")
	rep := audit(&trace.Trace{
		Ops: []trace.Op{
			{ID: 1, Name: "B:y<-2", Wrote: map[string]string{"y": "2"}},
			{ID: 2, Name: "A:x<-y+1", Reads: []string{"y"}, Wrote: map[string]string{"x": "3"}},
		},
		State:     map[string]string{"x": "3"},
		Installed: []uint64{2},
	})
	fmt.Println(rep.Summary())
}

func badWriteOrder() {
	fmt.Println("== caught: cache installed past a read-write edge (Scenario 1) ==")
	rep := audit(&trace.Trace{
		Ops: []trace.Op{
			{ID: 1, Name: "A:x<-y+1", Reads: []string{"y"}, Wrote: map[string]string{"x": "1"}},
			{ID: 2, Name: "B:y<-2", Wrote: map[string]string{"y": "2"}},
		},
		State:     map[string]string{"y": "2"},
		Installed: []uint64{2},
	})
	fmt.Println(rep.Summary())
}

func tornInstall() {
	fmt.Println("== caught: torn multi-variable install (Section 5, E/F/G) ==")
	// E: x<-y+1, F: y<-x+1, G: x<-x+1 from 0,0 execute to x=2,y=2. The
	// three must install atomically; here only x reached the disk.
	rep := audit(&trace.Trace{
		Ops: []trace.Op{
			{ID: 1, Name: "E", Reads: []string{"y"}, Wrote: map[string]string{"x": "1"}},
			{ID: 2, Name: "F", Reads: []string{"x"}, Wrote: map[string]string{"y": "2"}},
			{ID: 3, Name: "G", Reads: []string{"x"}, Wrote: map[string]string{"x": "2"}},
		},
		State:     map[string]string{"x": "2"}, // y missing: the group tore
		Installed: []uint64{1, 2, 3},
	})
	fmt.Println(rep.Summary())
}

func brokenRedoTest() {
	fmt.Println("== caught: redo test skips a needed operation ==")
	o := model.Incr(1, "x", 1)
	p := model.CopyPlus(2, "y", "x", 1)
	lg := core.NewLog()
	lg.Append(o)
	lg.Append(p)
	ck, err := core.NewChecker(lg, model.NewState())
	if err != nil {
		log.Fatal(err)
	}
	// Nothing installed, but the redo test never replays O.
	broken := func(r *core.Record, _ core.Analysis) bool {
		return r.Op.ID() != 1
	}
	rep := ck.Check(model.NewState(), lg, graph.NewSet[model.OpID](), broken, nil, true)
	fmt.Println(rep.Summary())
}
