// Command redofuzz is the differential crash-point fuzzer: it generates
// randomized operation histories per recovery method, enumerates crash
// points and cache-steal/flush schedules, and runs every clean leg of
// the oracle table (internal/sim) on each cell: invariant, determined
// state, sequential, parallel, degraded, serve, sharded and supervised
// recovery must all agree with the determined state the surviving log
// defines. -faults adds the faulted leg once per history and fault kind.
//
//	redofuzz                                  # default grid, all methods
//	redofuzz -seeds 2 -histories 3 -shrink    # deeper grid, minimize failures
//	redofuzz -budget 30s -faults -out /tmp/fz # time-boxed, with fault cells
//	redofuzz -repro repro-000.json            # replay one repro artifact
//
// On any oracle disagreement redofuzz exits 1 and, with -out, writes a
// repro-NNN.json artifact plus a standalone repro-NNN.go replay for each
// failure. With -repro it replays one artifact — from this fuzzer or
// from any redosim grid's -out — through the legs it names, and exits 1
// only if the disagreement still reproduces.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"redotheory/internal/fuzz"
	"redotheory/internal/obs"
	"redotheory/internal/sim"
)

func main() {
	seeds := flag.Int("seeds", 1, "top-level seeds to fuzz")
	histories := flag.Int("histories", 1, "histories per method × shape × seed")
	nOps := flag.Int("ops", 12, "operations per history")
	nPages := flag.Int("pages", 4, "pages in the database")
	budget := flag.Duration("budget", 0, "wall-clock budget (0 = run the full grid)")
	shrink := flag.Bool("shrink", false, "minimize failing cells with delta debugging")
	workers := flag.Int("workers", 3, "parallel-recovery worker pool size")
	faults := flag.Bool("faults", false, "also run faulted campaign cells per history and fault kind")
	out := flag.String("out", "", "directory for repro artifacts on failure")
	repro := flag.String("repro", "", "replay one repro artifact and exit (0 = passes, 1 = reproduces)")
	flag.Parse()

	if *repro != "" {
		replay(*repro)
		return
	}

	rec := obs.New()
	rep, err := fuzz.Run(fuzz.Config{
		Seeds:     *seeds,
		Histories: *histories,
		MaxOps:    *nOps,
		Pages:     *nPages,
		Budget:    *budget,
		Shrink:    *shrink,
		Workers:   *workers,
		Faults:    *faults,
		Recorder:  rec,
	})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("redofuzz: %d cells (%d histories", rep.Cells, rep.Histories)
	if rep.FaultCells > 0 {
		fmt.Printf(", %d fault cells", rep.FaultCells)
	}
	fmt.Printf(") in %s\n", rep.Elapsed.Round(time.Millisecond))
	fmt.Printf("coverage: %d partition shapes, %d redo-set sizes", len(rep.PartitionShapes), rep.RedoSizes)
	if len(rep.FaultKinds) > 0 {
		fmt.Printf(", fault kinds %v", rep.FaultKinds)
	}
	fmt.Println()
	if rep.Truncated {
		fmt.Println("budget exhausted before the grid completed")
	}

	if len(rep.Failures) == 0 {
		fmt.Println("all cells agree: no oracle disagreements")
		return
	}

	fmt.Printf("%d ORACLE DISAGREEMENTS\n", len(rep.Failures))
	for i, f := range rep.Failures {
		fmt.Printf("  [%d] %s\n      %s: %s\n", i, f.Cell.String(), f.Check, f.Detail)
		if f.Minimized != nil {
			fmt.Printf("      minimized to %d ops, crash=%d\n", len(f.Minimized.Ops), f.Minimized.Crash)
		}
		if f.Artifact != nil && f.Artifact.Flight != nil {
			fmt.Printf("      flight recorder: %d events, %d crash snapshots (of %d total seen)\n",
				len(f.Artifact.Flight.Events), len(f.Artifact.Flight.Snapshots), f.Artifact.Flight.Total)
		}
		if *out != "" && f.Artifact != nil {
			writeArtifact(*out, i, f.Artifact)
		}
	}
	os.Exit(1)
}

// writeArtifact writes repro-NNN.json and its standalone Go replay.
func writeArtifact(dir string, i int, a *fuzz.Artifact) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	jsonPath := filepath.Join(dir, fmt.Sprintf("repro-%03d.json", i))
	if err := a.WriteFile(jsonPath); err != nil {
		fatal(err)
	}
	src, err := a.GoSource()
	if err != nil {
		fatal(err)
	}
	goPath := filepath.Join(dir, fmt.Sprintf("repro-%03d.go", i))
	if err := os.WriteFile(goPath, src, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("      repro written: %s (+ %s)\n", jsonPath, goPath)
}

// replay re-runs one artifact through the full oracle.
func replay(path string) {
	a, err := fuzz.ReadArtifactFile(path)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("replaying %s: method=%s ops=%d crash=%d", path, a.Method, len(a.Ops), a.Crash)
	if a.Check != "" {
		fmt.Printf(" recorded=%s", a.Check)
	}
	fmt.Println()
	fail, err := fuzz.Replay(sim.DefaultMethods(), a)
	if err != nil {
		fatal(err)
	}
	if fail != nil {
		fmt.Printf("reproduced: %s: %s\n", fail.Check, fail.Detail)
		os.Exit(1)
	}
	legs := "the clean legs"
	if a.Legs != nil {
		legs = strings.Join(a.Legs, ", ")
	}
	fmt.Printf("cell passes: every leg agrees (%s)\n", legs)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "redofuzz: %v\n", err)
	os.Exit(1)
}
