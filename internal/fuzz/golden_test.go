package fuzz

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"redotheory/internal/obs"
	"redotheory/internal/sim"
)

// TestGoldenArtifacts pins the artifact format across its versions with
// checked-in files: a v1 fuzz artifact, a v2 artifact as the nested-crash
// campaign wrote it, and a v3 artifact of a shard-grid cell. Each must
// re-encode byte-identically, decode to its cell and legs, and replay to
// a pass; the sharded replay must run the sharded leg.
func TestGoldenArtifacts(t *testing.T) {
	cases := []struct {
		file   string
		schema string
		legs   sim.Legs
		check  func(t *testing.T, c sim.Cell)
	}{
		{"v1.json", ArtifactSchemaV1, sim.CleanLegs, func(t *testing.T, c sim.Cell) {
			want := sim.Nested{Every: 2, Seed: 7}
			if c.Method.Name != "genlsn" || c.Crash != 4 || len(c.Ops) != 6 || c.Workers != 3 || !reflect.DeepEqual(c.Nested, want) {
				t.Fatalf("v1 cell %s workers=%d nested=%+v", c.String(), c.Workers, c.Nested)
			}
		}},
		{"v2-nestedcrash.json", ArtifactSchemaV2, sim.CleanLegs, func(t *testing.T, c sim.Cell) {
			want := sim.Nested{Crashes: []int{2, 1, 0}, Every: 2, Seed: c.Sched.Seed}
			if c.Method.Name != "grouplsn" || c.Shape != "nested-crash-campaign" || c.Crash != 8 ||
				c.Workers != runtime.GOMAXPROCS(0) || !reflect.DeepEqual(c.Nested, want) {
				t.Fatalf("v2 cell %s workers=%d nested=%+v", c.String(), c.Workers, c.Nested)
			}
		}},
		{"v3-sharded.json", ArtifactSchemaV3, sim.LegSharded, func(t *testing.T, c sim.Cell) {
			if c.Method.Name != "logical" || c.Pages != 4 || len(c.Ops) != 16 || c.Sched.Seed != 3 || !reflect.DeepEqual(c.Shards, []int{15, 10}) {
				t.Fatalf("sharded cell %s", c.String())
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			a, err := DecodeArtifact(data)
			if err != nil {
				t.Fatal(err)
			}
			if a.Schema != tc.schema {
				t.Fatalf("schema %q, want %q", a.Schema, tc.schema)
			}
			if out, err := a.Encode(); err != nil || !bytes.Equal(out, data) {
				t.Fatalf("re-encoding differs from the file (err %v):\n%s", err, out)
			}
			cell, legs, err := a.Cell(sim.DefaultMethods())
			if err != nil {
				t.Fatal(err)
			}
			if legs != tc.legs {
				t.Fatalf("legs %v, want %v", legs.Names(), tc.legs.Names())
			}
			tc.check(t, cell)
			if fail, err := Replay(sim.DefaultMethods(), a); err != nil || fail != nil {
				t.Fatalf("replay: fail=%v err=%v", fail, err)
			}
			rec := obs.New()
			cell.Recorder = rec
			if _, _, err := check(cell, legs, nil); err != nil {
				t.Fatal(err)
			}
			want := int64(0)
			if legs&sim.LegSharded != 0 {
				want = 1
			}
			if got := rec.Snapshot().Counter(MShardCells); got != want {
				t.Fatalf("%s = %d, want %d", MShardCells, got, want)
			}
		})
	}
}

// TestExampleArtifactReencodes: the walkthrough's checked-in artifact
// re-encodes byte-identically.
func TestExampleArtifactReencodes(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "fuzzrepro", "repro.json"))
	if err != nil {
		t.Fatal(err)
	}
	a, err := DecodeArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := a.Encode(); err != nil || !bytes.Equal(out, data) {
		t.Fatalf("re-encoding differs from the file (err %v):\n%s", err, out)
	}
}
