package fuzz

import (
	"path/filepath"
	"strings"
	"testing"

	"redotheory/internal/model"
	"redotheory/internal/sim"
	"redotheory/internal/workload"
)

// TestArtifactRoundTripPreservesBehavior pins the OpSpec contract: an
// operation reconstructed from its artifact spec computes bit-identical
// writes, because ReadWrite's digest is a pure function of (id, name,
// reads, writes) and the values read.
func TestArtifactRoundTripPreservesBehavior(t *testing.T) {
	cell := mkCell(t, "genlsn", 8, 5, scheduleProfiles[1])
	cell.Sched.Seed = 21
	art := NewArtifact(cell, sim.CleanLegs, "sequential-oracle", "test detail")
	data, err := art.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Method != cell.Method.Name || back.Crash != cell.Crash || back.Schedule != cell.Sched {
		t.Fatalf("artifact coordinates diverge: %+v", back)
	}
	rebuilt, legs, err := back.Cell(sim.DefaultMethods())
	if err != nil {
		t.Fatal(err)
	}
	if legs != sim.CleanLegs {
		t.Fatalf("legs %v, want every clean leg", legs.Names())
	}

	// Same ops, same behavior: apply both histories to fresh states.
	apply := func(ops []*model.Op) *model.State {
		s := workload.InitialState(workload.Pages(cell.Pages))
		for _, op := range ops {
			if _, err := s.Apply(op); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	if !apply(cell.Ops).Equal(apply(rebuilt.Ops)) {
		t.Fatal("reconstructed history computes different states")
	}
}

// TestReplayPassesOnCleanCell: replaying an artifact of a passing cell
// reports no failure, twice, deterministically.
func TestReplayPassesOnCleanCell(t *testing.T) {
	cell := mkCell(t, "physiological", 6, 4, scheduleProfiles[0])
	cell.Sched.Seed = 17
	art := NewArtifact(cell, sim.CleanLegs, "", "")
	for i := 0; i < 2; i++ {
		fail, err := Replay(sim.DefaultMethods(), art)
		if err != nil {
			t.Fatal(err)
		}
		if fail != nil {
			t.Fatalf("replay %d reports %s: %s", i, fail.Check, fail.Detail)
		}
	}
}

// TestReplayUnknownMethodErrors: an artifact naming a method outside the
// table is an error, not a silent pass.
func TestReplayUnknownMethodErrors(t *testing.T) {
	cell := mkCell(t, "physiological", 4, 2, sim.Sched{Seed: 1})
	art := NewArtifact(cell, sim.CleanLegs, "", "")
	art.Method = "no-such-method"
	if _, err := Replay(sim.DefaultMethods(), art); err == nil {
		t.Fatal("unknown method replayed without error")
	}
}

// TestArtifactValidateRejectsCorruptInputs mirrors the obs report
// hardening: a malformed artifact errors clearly instead of producing a
// zero-value cell.
func TestArtifactValidateRejectsCorruptInputs(t *testing.T) {
	base := func() *Artifact {
		return NewArtifact(mkCell(t, "physical", 4, 3, sim.Sched{Seed: 1}), sim.CleanLegs, "c", "d")
	}
	cases := []struct {
		name   string
		mutate func(*Artifact)
		want   string
	}{
		{"wrong schema", func(a *Artifact) { a.Schema = "bogus" }, "schema"},
		{"no method", func(a *Artifact) { a.Method = "" }, "method"},
		{"zero pages", func(a *Artifact) { a.Pages = 0 }, "page count"},
		{"crash out of range", func(a *Artifact) { a.Crash = len(a.Ops) + 1 }, "out of range"},
		{"negative crash", func(a *Artifact) { a.Crash = -1 }, "out of range"},
		{"op without writes", func(a *Artifact) { a.Ops[0].Writes = nil }, "no writes"},
		{"non-positive op id", func(a *Artifact) { a.Ops[0].ID = 0 }, "non-positive id"},
		{"v3 with nested_crash", func(a *Artifact) { a.NestedCrash = []int{1} }, "nested_crash"},
		{"v3 without legs", func(a *Artifact) { a.Legs = nil }, "legs"},
		{"unknown leg", func(a *Artifact) { a.Legs = []string{"sequential", "bogus"} }, "legs"},
		{"v2 with a v3 field", func(a *Artifact) { a.Schema = ArtifactSchemaV2 }, "v3"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := base()
			c.mutate(a)
			err := a.Validate()
			if err == nil {
				t.Fatal("corrupt artifact validated")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error does not mention %q: %v", c.want, err)
			}
		})
	}
	if _, err := DecodeArtifact([]byte(`{"schema":`)); err == nil {
		t.Fatal("truncated artifact decoded")
	}
	if _, err := DecodeArtifact([]byte(`null`)); err == nil {
		t.Fatal("null artifact decoded")
	}
}

// TestArtifactFileRoundTrip writes and reloads an artifact.
func TestArtifactFileRoundTrip(t *testing.T) {
	art := NewArtifact(mkCell(t, "grouplsn", 5, 5, scheduleProfiles[2]), sim.CleanLegs, "parallel-divergence", "x")
	path := filepath.Join(t.TempDir(), "repro.json")
	if err := art.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadArtifactFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Check != "parallel-divergence" || len(back.Ops) != len(art.Ops) {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

// TestArtifactV1BackwardCompat: v1 artifacts written before the
// nested-crash field existed still decode, validate, and replay — the
// shipped example artifact is the fixture. Its recorded disagreement was
// a synthetic walkthrough bug, so the replay must come back clean (the
// supervised leg runs with an empty nested schedule).
func TestArtifactV1BackwardCompat(t *testing.T) {
	art, err := ReadArtifactFile(filepath.Join("..", "..", "examples", "fuzzrepro", "repro.json"))
	if err != nil {
		t.Fatal(err)
	}
	if art.Schema != ArtifactSchemaV1 {
		t.Fatalf("example artifact schema %q; the fixture must stay v1", art.Schema)
	}
	if len(art.NestedCrash) != 0 {
		t.Fatalf("v1 artifact decoded with a nested schedule: %v", art.NestedCrash)
	}
	cell, legs, err := art.Cell(sim.DefaultMethods())
	if err != nil {
		t.Fatal(err)
	}
	if cell.Nested.Crashes != nil || legs != sim.CleanLegs {
		t.Fatalf("v1 cell carries a nested schedule %v or legs %v", cell.Nested.Crashes, legs.Names())
	}
	fail, err := Replay(sim.DefaultMethods(), art)
	if err != nil {
		t.Fatal(err)
	}
	if fail != nil {
		t.Fatalf("v1 artifact replay reports %s: %s", fail.Check, fail.Detail)
	}
	// A v1 artifact smuggling the v2 field is malformed.
	bad := *art
	bad.NestedCrash = []int{1}
	if err := bad.Validate(); err == nil {
		t.Fatal("v1 artifact with nested_crash validated")
	}
}

// TestArtifactV2RoundTrip: the supervised leg's nested plan survives
// the encode/decode/Cell round trip of a v3 artifact, and the same
// schedule written as a v2 artifact decodes to the fuzz cell's plan
// (K = 2, seeded from the schedule).
func TestArtifactV2RoundTrip(t *testing.T) {
	cell := mkCell(t, "physiological", 6, 4, scheduleProfiles[0])
	cell.Sched.Seed = 13
	cell.Nested = sim.Nested{Crashes: []int{2, 0}, Every: 2, Seed: 13}
	art := NewArtifact(cell, sim.CleanLegs, "", "")
	if art.Schema != ArtifactSchemaV3 {
		t.Fatalf("new artifact schema = %q", art.Schema)
	}
	data, err := art.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	v2 := *back
	v2.Schema, v2.Legs, v2.Nested, v2.NestedCrash = ArtifactSchemaV2, nil, nil, []int{2, 0}
	for _, a := range []*Artifact{back, &v2} {
		rebuilt, _, err := a.Cell(sim.DefaultMethods())
		if err != nil {
			t.Fatal(err)
		}
		if n := rebuilt.Nested; len(n.Crashes) != 2 || n.Crashes[0] != 2 || n.Crashes[1] != 0 || n.Every != 2 || n.Seed != 13 {
			t.Fatalf("%s: nested plan lost in round trip: %+v", a.Schema, n)
		}
		if fail, err := Replay(sim.DefaultMethods(), a); err != nil || fail != nil {
			t.Fatalf("%s replay: fail=%v err=%v", a.Schema, fail, err)
		}
	}
}

// TestGoSourceEmbedsArtifact: the generated standalone repro embeds the
// JSON and the replay entry points.
func TestGoSourceEmbedsArtifact(t *testing.T) {
	art := NewArtifact(mkCell(t, "logical", 3, 2, sim.Sched{Seed: 9}), sim.CleanLegs, "invariant", "d")
	src, err := art.GoSource()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"package main", "fuzz.DecodeArtifact", "fuzz.Replay", ArtifactSchemaV3, `"method": "logical"`} {
		if !strings.Contains(string(src), want) {
			t.Fatalf("generated source missing %q:\n%s", want, src)
		}
	}
}
