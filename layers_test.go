package redotheory_test

// The layer rule (DESIGN.md §3): the engine packages link only what
// recovery uses, and internal/ exports only what some other file calls.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// enginePkgs are the packages a recovering system links. harnessPkgs
// are the simulation, fuzzing and reporting layers built on top of
// them; theoryPkgs are the paper's graphs, kept as the teaching
// implementation. graph's Set and digraph are shared vocabulary and
// stay open to every layer.
var (
	enginePkgs  = []string{"model", "dense", "core", "partition", "storage", "wal", "cache", "method", "serve", "shard", "supervise"}
	harnessPkgs = []string{"sim", "fuzz", "workload", "rtrace", "trendlog"}
	theoryPkgs  = []string{"conflict", "install", "stategraph", "writegraph"}
)

// allowedImports are engine → theory edges kept for now, keyed
// "importer → imported", each with its reason.
var allowedImports = map[string]string{
	"core → conflict":   "Checker and DefaultGraphs build the conflict graph until the audit runs on dense tables (ROADMAP item 6)",
	"core → install":    "Checker and DefaultGraphs build the installation graph until ROADMAP item 6",
	"core → stategraph": "Checker's determined state comes from the state graph until ROADMAP item 6",
}

// allowedExports are exported functions and methods under internal/
// that no non-test file outside their own names, each with its reason.
var allowedExports = map[string]string{
	// The theory packages' teaching API: the paper's definitions,
	// exercised by their own tests and the experiments.
	"conflict.(*Graph).LastWriter":        "teaching API: a variable's final writer in the conflict graph (Section 2.2)",
	"graph.(*Graph).Ancestors":            "teaching API: the paper's predecessor set of a node",
	"graph.(*Graph).InDegree":             "teaching API: direct predecessors, the dual of OutDegree",
	"graph.(*Graph).NumEdges":             "teaching API: edge counts experiment E11 compares across derivations",
	"graph.(*Graph).PrefixClosure":        "teaching API: the smallest prefix containing a set",
	"graph.(*Graph).Reachable":            "teaching API: a node's descendants, the dual of Ancestors",
	"graph.(*Graph).WeakComponents":       "teaching API: independent replay components of a restricted graph, the partition planner's reference",
	"graph.(*keyHeap).Less":               "satisfies container/heap.Interface",
	"graph.(*keyHeap).Pop":                "satisfies container/heap.Interface",
	"graph.(*keyHeap).Push":               "satisfies container/heap.Interface",
	"graph.(*keyHeap).Swap":               "satisfies container/heap.Interface",
	"install.(*Graph).Applicable":         "teaching API: the applicability condition replay relies on (Section 3.3)",
	"install.(*Graph).MinimalUninstalled": "teaching API: the minimal uninstalled operations of an installed prefix",
	"install.AblationDropRW":              "teaching API: the ablation showing read-write edges are load-bearing",
	"install.AblationKeepWR":              "teaching API: the never-drop-write-read ablation, which stops explaining Scenario 2",
	"install.ExposedByReachability":       "teaching API: the reachability definition of exposure that cross-checks Exposed",
	"install.LegacyFromConflict":          "teaching API: the earlier installation-graph derivation experiment E11 compares against",
	"stategraph.(*Graph).PrefixOfOps":     "teaching API: the state-graph prefix an operation set labels",
	"writegraph.(*Graph).InitialNode":     "teaching API: the write graph's minimum node",
	"writegraph.(*Graph).RemoveWrite":     "teaching API: the write graph's remove-a-write transformation",
	"writegraph.(*Graph).WithInitialNode": "teaching API: adds the write graph's minimum node",

	// Outside the theory packages.
	"method.(*base).FlushPage": "experiment E14 installs chosen pages to pin the checkpoint bound; the cache has no other per-page install and E14's output must not change",
	"sim.BuildShardedCrashed":  "bench/sharded.go mirrors it by name, and bench/ changes only with the benchmark",
	"workload.BankTransfers":   "experiment E15's transfer workload; adding it to ShapesFor would change every fuzz and matrix table",
}

// goFile is one parsed non-test file of the module or of bench/.
type goFile struct {
	path  string // slash-separated, relative to the repo root
	ast   *ast.File
	names map[string]bool // every identifier the file mentions
}

func parseTree(t *testing.T) []goFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []goFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		names := map[string]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				names[id.Name] = true
			}
			return true
		})
		files = append(files, goFile{filepath.ToSlash(path), f, names})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// pkgOf is the package directory of an internal/ file ("internal/core/x.go"
// → "core"), or "" for a file outside internal/.
func pkgOf(path string) string {
	rest, ok := strings.CutPrefix(path, "internal/")
	if !ok {
		return ""
	}
	return filepath.ToSlash(filepath.Dir(rest))
}

// TestEngineImportsNoHarness: no non-test file of an engine package
// imports a harness package, or a theory package without an allowlist
// entry.
func TestEngineImportsNoHarness(t *testing.T) {
	engine, harness, theory := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, p := range enginePkgs {
		engine[p] = true
	}
	for _, p := range harnessPkgs {
		harness[p] = true
	}
	for _, p := range theoryPkgs {
		theory[p] = true
	}
	seen := map[string]bool{}
	for _, f := range parseTree(t) {
		pkg := pkgOf(f.path)
		if !engine[pkg] {
			continue
		}
		for _, imp := range f.ast.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			dep, ok := strings.CutPrefix(path, "redotheory/internal/")
			if !ok {
				continue
			}
			edge := pkg + " → " + dep
			_, allowed := allowedImports[edge]
			seen[edge] = true
			switch {
			case harness[dep]:
				t.Errorf("%s imports %s: engine packages may not link the harness", f.path, path)
			case theory[dep] && !allowed:
				t.Errorf("%s imports %s: engine packages reach the theory graphs only through an allowlisted edge", f.path, path)
			}
		}
	}
	for edge := range allowedImports {
		if !seen[edge] {
			t.Errorf("allowlisted import %s is gone: delete its entry", edge)
		}
	}
}

// TestExportedSurfaceIsUsed: every exported function and method under
// internal/ is named by some non-test file outside its own (cmd/,
// examples/ and bench/ count), or carries an allowlist reason.
func TestExportedSurfaceIsUsed(t *testing.T) {
	files := parseTree(t)
	var unused []string
	for i, f := range files {
		pkg := pkgOf(f.path)
		if pkg == "" {
			continue
		}
		for _, decl := range f.ast.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			used := false
			for j, g := range files {
				if j != i && g.names[fn.Name.Name] {
					used = true
					break
				}
			}
			if !used {
				unused = append(unused, pkg+"."+funcKey(fn))
			}
		}
	}
	sort.Strings(unused)
	t.Logf("%d unreferenced exports, %d allowlisted", len(unused), len(allowedExports))
	found := map[string]bool{}
	for _, k := range unused {
		found[k] = true
		if _, ok := allowedExports[k]; !ok {
			t.Errorf("%s is exported but no non-test file outside its own names it: give it a caller, unexport it, or allowlist it with a reason", k)
		}
	}
	for k := range allowedExports {
		if !found[k] {
			t.Errorf("allowlisted export %s now has a caller or is gone: delete its entry", k)
		}
	}
}

// funcKey names a declaration the way the allowlist does: F, T.M, or (*T).M.
func funcKey(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	typ := fn.Recv.List[0].Type
	star := false
	if s, ok := typ.(*ast.StarExpr); ok {
		typ, star = s.X, true
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	name := typ.(*ast.Ident).Name
	if star {
		return "(*" + name + ")." + fn.Name.Name
	}
	return name + "." + fn.Name.Name
}
