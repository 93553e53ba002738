package fuzz

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"redotheory/internal/fault"
	"redotheory/internal/model"
	"redotheory/internal/obs"
	"redotheory/internal/sim"
)

// ArtifactSchemaV1 is the original repro artifact format.
const ArtifactSchemaV1 = "redotheory/fuzzrepro/v1"

// ArtifactSchemaV2 extends v1 with the supervised-recovery nested-crash
// schedule.
const ArtifactSchemaV2 = "redotheory/fuzzrepro/v2"

// ArtifactSchemaV3 is the one artifact every grid writes: it names the
// legs the cell ran and carries the cell's optional plans — the
// supervised leg's full nested plan, a media-fault plan, per-shard
// crash points. New artifacts are written as v3; v1 and v2 artifacts
// still decode, validate and replay, as fuzz cells (every clean leg,
// the supervised leg at K = 2 seeded from the schedule).
const ArtifactSchemaV3 = "redotheory/fuzzrepro/v3"

// OpSpec is the serializable form of one history operation. Every fuzz
// history is built from model.ReadWrite operations, whose behavior (the
// per-write digest of the values read, salted with the id and target) is
// a pure function of these four fields — so the spec reconstructs an
// operation that is bit-identical in effect to the original.
type OpSpec struct {
	ID     int64    `json:"id"`
	Name   string   `json:"name"`
	Reads  []string `json:"reads,omitempty"`
	Writes []string `json:"writes"`
}

// Artifact is a self-contained failing-cell description: everything
// needed to re-execute the cell and re-run the oracle, with no
// dependence on the workload generators that produced it.
type Artifact struct {
	Schema string `json:"schema"`
	// Method names the recovery method under test.
	Method string `json:"method"`
	// Shape records the originating workload shape (informational).
	Shape string `json:"shape,omitempty"`
	// Pages is the page-set size of the initial state.
	Pages int `json:"pages"`
	// Ops is the minimized history.
	Ops []OpSpec `json:"ops"`
	// Crash is the crash point (operations executed before the crash).
	Crash int `json:"crash"`
	// Schedule is the background-activity schedule.
	Schedule sim.Sched `json:"schedule"`
	// Workers is the parallel-recovery pool size (0 means the default).
	Workers int `json:"workers,omitempty"`
	// NestedCrash is the supervised-recovery leg's crash-during-recovery
	// schedule (v2 only).
	NestedCrash []int `json:"nested_crash,omitempty"`
	// Legs names the legs the cell ran, Nested is the supervised leg's
	// plan, Fault the media-fault plan and Shards the per-shard crash
	// points (v3 only; see sim.Cell).
	Legs   []string    `json:"legs,omitempty"`
	Nested *sim.Nested `json:"nested,omitempty"`
	Fault  *fault.Plan `json:"fault,omitempty"`
	Shards []int       `json:"shards,omitempty"`
	// Check and Detail record the disagreement the artifact reproduces.
	Check  string `json:"check,omitempty"`
	Detail string `json:"detail,omitempty"`
	// Flight is the flight-recorder dump captured while the cell failed:
	// the bounded telemetry ring leading into the disagreement, plus any
	// crash snapshots the supervised leg preserved. Optional, so v2
	// artifacts without it stay valid.
	Flight *obs.FlightDump `json:"flight,omitempty"`
}

// NewArtifact serializes a cell and the legs it ran into a v3 artifact.
func NewArtifact(c sim.Cell, legs sim.Legs, check, detail string) *Artifact {
	a := &Artifact{
		Schema:   ArtifactSchemaV3,
		Method:   c.Method.Name,
		Shape:    c.Shape,
		Pages:    c.Pages,
		Crash:    c.Crash,
		Schedule: c.Sched,
		Workers:  c.Workers,
		Legs:     legs.Names(),
		Fault:    c.Fault,
		Shards:   c.Shards,
		Check:    check,
		Detail:   detail,
	}
	if legs&sim.LegSupervised != 0 {
		n := c.Nested
		a.Nested = &n
	}
	for _, op := range c.Ops {
		a.Ops = append(a.Ops, OpSpec{
			ID:     int64(op.ID()),
			Name:   op.Name(),
			Reads:  varsToStrings(op.Reads()),
			Writes: varsToStrings(op.Writes()),
		})
	}
	return a
}

// Validate checks the artifact's structural contract. Each schema
// carries only its own version's fields.
func (a *Artifact) Validate() error {
	v3 := a.Legs != nil || a.Nested != nil || a.Fault != nil || a.Shards != nil
	switch a.Schema {
	case ArtifactSchemaV3:
		if len(a.NestedCrash) > 0 {
			return fmt.Errorf("fuzz: v3 artifact carries nested_crash (a %s field; v3 has nested)", ArtifactSchemaV2)
		}
		if _, err := sim.ParseLegs(a.Legs); err != nil || len(a.Legs) == 0 {
			return fmt.Errorf("fuzz: v3 artifact legs %v: want a non-empty list of leg names", a.Legs)
		}
	case ArtifactSchemaV2, ArtifactSchemaV1:
		if v3 {
			return fmt.Errorf("fuzz: %s artifact carries a %s field", a.Schema, ArtifactSchemaV3)
		}
		if a.Schema == ArtifactSchemaV1 && len(a.NestedCrash) > 0 {
			return fmt.Errorf("fuzz: v1 artifact carries a nested-crash schedule (a %s field)", ArtifactSchemaV2)
		}
	default:
		return fmt.Errorf("fuzz: artifact schema is %q, want %q, %q or %q", a.Schema, ArtifactSchemaV1, ArtifactSchemaV2, ArtifactSchemaV3)
	}
	if a.Method == "" {
		return fmt.Errorf("fuzz: artifact names no method")
	}
	if a.Pages <= 0 {
		return fmt.Errorf("fuzz: artifact page count %d", a.Pages)
	}
	if a.Crash < 0 || a.Crash > len(a.Ops) {
		return fmt.Errorf("fuzz: artifact crash point %d out of range [0,%d]", a.Crash, len(a.Ops))
	}
	for i, op := range a.Ops {
		if len(op.Writes) == 0 {
			return fmt.Errorf("fuzz: artifact op %d (%q) has no writes", i, op.Name)
		}
		if op.ID <= 0 {
			return fmt.Errorf("fuzz: artifact op %d (%q) has non-positive id %d", i, op.Name, op.ID)
		}
	}
	if a.Flight != nil {
		if err := a.Flight.Validate(); err != nil {
			return fmt.Errorf("fuzz: artifact flight dump: %w", err)
		}
	}
	return nil
}

// Cell materializes the artifact back into a runnable cell and the legs
// to run it through, taking the method's factory from the table (use
// sim.DefaultMethods()). A v1 or v2 artifact is a fuzz cell: every clean
// leg, the supervised leg at K = 2 seeded from the schedule, and a pool
// of 0 workers meaning the default.
func (a *Artifact) Cell(methods []sim.NamedFactory) (sim.Cell, sim.Legs, error) {
	if err := a.Validate(); err != nil {
		return sim.Cell{}, 0, err
	}
	i := 0
	for i < len(methods) && methods[i].Name != a.Method {
		i++
	}
	if i == len(methods) {
		return sim.Cell{}, 0, fmt.Errorf("fuzz: artifact method %q not in the method table", a.Method)
	}
	c := sim.Cell{Method: methods[i], Shape: a.Shape, Pages: a.Pages, Crash: a.Crash, Sched: a.Schedule,
		Workers: a.Workers, Fault: a.Fault, Shards: a.Shards}
	for _, spec := range a.Ops {
		c.Ops = append(c.Ops, model.ReadWrite(model.OpID(spec.ID), spec.Name,
			stringsToVars(spec.Reads), stringsToVars(spec.Writes)))
	}
	if a.Schema == ArtifactSchemaV3 {
		if a.Nested != nil {
			c.Nested = *a.Nested
		}
		legs, err := sim.ParseLegs(a.Legs)
		return c, legs, err
	}
	c.Nested = sim.Nested{Crashes: a.NestedCrash, Every: 2, Seed: a.Schedule.Seed}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c, sim.CleanLegs, nil
}

// Encode renders the artifact as indented JSON.
func (a *Artifact) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("fuzz: encoding artifact: %w", err)
	}
	return append(data, '\n'), nil
}

// DecodeArtifact parses and validates an artifact.
func DecodeArtifact(data []byte) (*Artifact, error) {
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("fuzz: decoding artifact: %w", err)
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return &a, nil
}

// ReadArtifactFile loads an artifact from disk.
func ReadArtifactFile(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fuzz: reading artifact: %w", err)
	}
	a, err := DecodeArtifact(data)
	if err != nil {
		return nil, fmt.Errorf("fuzz: %s: %w", path, err)
	}
	return a, nil
}

// WriteFile writes the artifact as JSON.
func (a *Artifact) WriteFile(path string) error {
	data, err := a.Encode()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("fuzz: writing artifact: %w", err)
	}
	return nil
}

// Replay re-executes the artifact's cell through the legs it names and
// re-runs them. A nil return means every leg agreed — the recorded
// disagreement no longer reproduces. The methods table supplies the
// factory (use sim.DefaultMethods()).
func Replay(methods []sim.NamedFactory, a *Artifact) (*Failure, error) {
	cell, legs, err := a.Cell(methods)
	if err != nil {
		return nil, err
	}
	res, _, err := check(cell, legs, nil)
	if err != nil || res.OK() {
		return nil, err
	}
	return &Failure{Cell: cell, Check: res.Check, Detail: res.Detail, Artifact: a}, nil
}

// GoSource renders the artifact as a standalone main package that
// replays it: the repro a bug report can carry without any reference to
// the fuzzing run that produced it.
func (a *Artifact) GoSource() ([]byte, error) {
	data, err := a.Encode()
	if err != nil {
		return nil, err
	}
	src := fmt.Sprintf(`// Generated by redofuzz: standalone replay of one fuzz repro artifact.
// Run from the repository root:
//
//	go run ./path/to/this/file
//
// Exit status 1 means the recorded oracle disagreement still reproduces.
package main

import (
	"fmt"
	"os"

	"redotheory/internal/fuzz"
	"redotheory/internal/sim"
)

const artifactJSON = %s

func main() {
	a, err := fuzz.DecodeArtifact([]byte(artifactJSON))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fail, err := fuzz.Replay(sim.DefaultMethods(), a)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if fail != nil {
		fmt.Printf("reproduced: %%s: %%s\n", fail.Check, fail.Detail)
		os.Exit(1)
	}
	fmt.Printf("cell passes: recorded disagreement (%%s) no longer reproduces\n", a.Check)
}
`, "`"+string(data)+"`")
	return []byte(src), nil
}

func varsToStrings(vs []model.Var) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = string(v)
	}
	return out
}

func stringsToVars(ss []string) []model.Var {
	out := make([]model.Var, len(ss))
	for i, s := range ss {
		out[i] = model.Var(s)
	}
	return out
}
