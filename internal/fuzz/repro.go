package fuzz

import (
	"encoding/json"
	"fmt"
	"os"

	"redotheory/internal/model"
	"redotheory/internal/obs"
	"redotheory/internal/sim"
)

// ArtifactSchemaV1 is the original repro artifact format.
const ArtifactSchemaV1 = "redotheory/fuzzrepro/v1"

// ArtifactSchemaV2 extends v1 with the supervised-recovery nested-crash
// schedule. New artifacts are written as v2; v1 artifacts still decode,
// validate, and replay (their nested schedule is simply empty).
const ArtifactSchemaV2 = "redotheory/fuzzrepro/v2"

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
	// schedule (v2; absent in v1 artifacts).
	NestedCrash []int `json:"nested_crash,omitempty"`
	// Check and Detail record the disagreement the artifact reproduces.
	Check  string `json:"check,omitempty"`
	Detail string `json:"detail,omitempty"`
	// Flight is the flight-recorder dump captured while the cell failed:
	// the bounded telemetry ring leading into the disagreement, plus any
	// crash snapshots the supervised leg preserved. Optional, so v2
	// artifacts without it stay valid.
	Flight *obs.FlightDump `json:"flight,omitempty"`
}

// NewArtifact serializes a cell into an artifact.
func NewArtifact(cell Cell, check, detail string) *Artifact {
	a := &Artifact{
		Schema:      ArtifactSchemaV2,
		Method:      cell.History.Method,
		Shape:       cell.History.Shape,
		Pages:       cell.History.Pages,
		Crash:       cell.Crash,
		Schedule:    cell.Schedule,
		Workers:     cell.Workers,
		NestedCrash: cell.NestedCrash,
		Check:       check,
		Detail:      detail,
	}
	for _, op := range cell.History.Ops {
		a.Ops = append(a.Ops, OpSpec{
			ID:     int64(op.ID()),
			Name:   op.Name(),
			Reads:  varsToStrings(op.Reads()),
			Writes: varsToStrings(op.Writes()),
		})
	}
	return a
}

// Validate checks the artifact's structural contract. Both schema
// versions are accepted; the nested-crash schedule is a v2 field, so a
// v1 artifact carrying one is malformed.
func (a *Artifact) Validate() error {
	switch a.Schema {
	case ArtifactSchemaV2:
	case ArtifactSchemaV1:
		if len(a.NestedCrash) > 0 {
			return fmt.Errorf("fuzz: v1 artifact carries a nested-crash schedule (a %s field)", ArtifactSchemaV2)
		}
	default:
		return fmt.Errorf("fuzz: artifact schema is %q, want %q or %q", a.Schema, ArtifactSchemaV1, ArtifactSchemaV2)
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

// Cell materializes the artifact back into a runnable cell.
func (a *Artifact) Cell() (Cell, error) {
	if err := a.Validate(); err != nil {
		return Cell{}, err
	}
	hist := History{Method: a.Method, Shape: a.Shape, Pages: a.Pages}
	for _, spec := range a.Ops {
		hist.Ops = append(hist.Ops, model.ReadWrite(model.OpID(spec.ID), spec.Name,
			stringsToVars(spec.Reads), stringsToVars(spec.Writes)))
	}
	return Cell{History: hist, Crash: a.Crash, Schedule: a.Schedule, Workers: a.Workers, NestedCrash: a.NestedCrash}, nil
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

// Replay re-executes the artifact's cell against the named method and
// re-runs the full oracle. A nil return means every leg agreed — the
// recorded disagreement no longer reproduces. The methods table supplies
// the factory (use sim.DefaultMethods()).
func Replay(methods []sim.NamedFactory, a *Artifact) (*Failure, error) {
	cell, err := a.Cell()
	if err != nil {
		return nil, err
	}
	for _, m := range methods {
		if m.Name != a.Method {
			continue
		}
		dis, _, err := checkCell(m, cell, nil, nil)
		if err != nil {
			return nil, err
		}
		if dis == nil {
			return nil, nil
		}
		return &Failure{Cell: cell, Check: dis.check, Detail: dis.detail, Artifact: a}, nil
	}
	return nil, fmt.Errorf("fuzz: artifact method %q not in the method table", a.Method)
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
