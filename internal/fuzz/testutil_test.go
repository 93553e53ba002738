package fuzz

import (
	"testing"

	"redotheory/internal/sim"
	"redotheory/internal/workload"
)

// namedFor finds a method factory in the default table.
func namedFor(t *testing.T, name string) sim.NamedFactory {
	t.Helper()
	for _, m := range sim.DefaultMethods() {
		if m.Name == name {
			return m
		}
	}
	t.Fatalf("method %q not in sim.DefaultMethods()", name)
	return sim.NamedFactory{}
}

// mkCell generates a cell for the method's first workload shape.
func mkCell(t *testing.T, methodName string, numOps, crash int, sched sim.Sched) sim.Cell {
	t.Helper()
	shapes, err := workload.ShapesFor(methodName)
	if err != nil {
		t.Fatal(err)
	}
	const pages = 4
	return sim.Cell{
		Method:  namedFor(t, methodName),
		Shape:   shapes[0].Name,
		Seed:    11,
		Pages:   pages,
		Ops:     shapes[0].Gen(numOps, workload.Pages(pages), 11),
		Crash:   crash,
		Sched:   sched,
		Workers: 2,
	}
}
