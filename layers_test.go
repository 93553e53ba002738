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
	"core → conflict": "Checker builds and owns the conflict graph until the audit runs on dense tables (ROADMAP item 6)",
	"core → install":  "Checker builds and owns the installation graph until ROADMAP item 6",
}

// allowedExports are exported functions and methods under internal/
// that no non-test file outside their own names, and unexported ones no
// other non-test code of their package names, each with its reason.
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
		if isExportedKey(k) && !found[k] {
			t.Errorf("allowlisted export %s now has a caller or is gone: delete its entry", k)
		}
	}
}

// TestUnexportedSurfaceIsUsed: every unexported function and method in
// a non-test file under internal/ is named by some non-test file of its
// package outside its own declaration, or carries an allowlist reason
// in allowedExports. A helper only tests call belongs in a _test.go
// file, so the engine does not compile test fixtures.
func TestUnexportedSurfaceIsUsed(t *testing.T) {
	files := parseTree(t)
	uses := map[string]map[string]int{} // package → identifier → uses
	for _, f := range files {
		pkg := pkgOf(f.path)
		if pkg == "" {
			continue
		}
		if uses[pkg] == nil {
			uses[pkg] = map[string]int{}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				// The declared name is not a use: count the receiver,
				// signature and body by hand.
				if x.Recv != nil {
					ast.Inspect(x.Recv, func(n ast.Node) bool { return countIdent(uses[pkg], n) })
				}
				ast.Inspect(x.Type, func(n ast.Node) bool { return countIdent(uses[pkg], n) })
				if x.Body != nil {
					ast.Inspect(x.Body, func(n ast.Node) bool { return countIdent(uses[pkg], n) })
				}
				return false
			default:
				return countIdent(uses[pkg], n)
			}
		})
	}
	found := map[string]bool{}
	for _, f := range files {
		pkg := pkgOf(f.path)
		if pkg == "" {
			continue
		}
		for _, decl := range f.ast.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.IsExported() || fn.Name.Name == "init" || uses[pkg][fn.Name.Name] > 0 {
				continue
			}
			k := pkg + "." + funcKey(fn)
			found[k] = true
			if _, ok := allowedExports[k]; !ok {
				t.Errorf("%s is unexported and no non-test file of its package names it: move it into a _test.go file, delete it, or allowlist it with a reason", k)
			}
		}
	}
	for k := range allowedExports {
		if !isExportedKey(k) && !found[k] {
			t.Errorf("allowlisted unexported %s now has a caller or is gone: delete its entry", k)
		}
	}
}

// countIdent counts n in uses when it is an identifier.
func countIdent(uses map[string]int, n ast.Node) bool {
	if id, ok := n.(*ast.Ident); ok {
		uses[id.Name]++
	}
	return true
}

// isExportedKey reports whether an allowlist key ("pkg.F", "pkg.T.M" or
// "pkg.(*T).M") names an exported function or method.
func isExportedKey(k string) bool {
	return token.IsExported(k[strings.LastIndex(k, ".")+1:])
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

// crashSurface are the DB methods that read what a crash left. One
// constructor, method.Survivors, reads them into the core.Survivors
// value every recovery engine and oracle runs on (DESIGN.md §1.1.1).
var crashSurface = map[string]bool{"StableLog": true, "StableState": true, "Checkpointed": true, "RedoTest": true, "Analyze": true}

// surfacePkgs are the packages whose types may read the surface through
// their own receiver: the DB types and the log manager they wrap.
var surfacePkgs = map[string]bool{"method": true, "wal": true}

// allowedSurfaceReads are the other functions that call the crash
// surface, keyed "package.Func" (cmd/ and examples/ by directory), each
// with its reason.
var allowedSurfaceReads = map[string]string{
	"method.Survivors":                      "the one constructor of the value",
	"method.RecoverDegraded":                "the detection phases and the conservative path read the repaired log alone; the full value is taken on the fast path only",
	"sim.Determined":                        "the brute-force oracle replays the stable log over the recovery base and runs no redo test, so a value would project a state it never reads",
	"shard.(*DB).MergedOracle":              "the merged brute-force oracle, sim.Determined across shards",
	"shard.(*DB).StableTxns":                "the certified cut's transaction table, read from the logs alone",
	"sim.onlineAuditStep":                   "the online auditor audits the stable store during normal operation, not after a crash",
	"sim.realizeAtCrash":                    "fault injection picks a stable log record to rot before recovery runs",
	"supervise.(*session).runAttempt":       "reads back what the installing pass wrote, to cross-check stable storage itself",
	"examples/onlineaudit.healthyRun":       "the online auditor audits the stable store during normal operation, not after a crash",
	"examples/btreesplit.carefulWriteOrder": "watches pages reach the stable store during normal operation",
	"examples/mediafault.tornTail":          "reports the repaired log's length after degraded recovery",
}

// TestCrashSurfaceReadOnce: no non-test file outside bench/ calls a
// crash-surface method except method.Survivors, a DB type or the log
// manager reading itself through its receiver, and an allowlisted
// function. bench/ changes only with the benchmark.
func TestCrashSurfaceReadOnce(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range parseTree(t) {
		if strings.HasPrefix(f.path, "bench/") {
			continue
		}
		dir := pkgOf(f.path)
		if dir == "" {
			dir = filepath.ToSlash(filepath.Dir(f.path))
		}
		for _, decl := range f.ast.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			key := dir + "." + funcKey(fn)
			recv := ""
			if fn.Recv != nil && len(fn.Recv.List) == 1 && len(fn.Recv.List[0].Names) == 1 && surfacePkgs[dir] {
				recv = fn.Recv.List[0].Names[0].Name
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 0 {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !crashSurface[sel.Sel.Name] {
					return true
				}
				if recv != "" && rootIdent(sel.X) == recv {
					return true
				}
				if _, ok := allowedSurfaceReads[key]; ok {
					seen[key] = true
					return true
				}
				t.Errorf("%s: %s calls %s(): read the crash through method.Survivors, or allowlist the function with a reason", f.path, key, sel.Sel.Name)
				return true
			})
		}
	}
	for k := range allowedSurfaceReads {
		if !seen[k] {
			t.Errorf("allowlisted crash-surface reader %s no longer reads the surface or is gone: delete its entry", k)
		}
	}
}

// rootIdent is the identifier a selector chain starts from ("b" for
// b.log.StableLog), or "" when it starts from anything else.
func rootIdent(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x.Name
		case *ast.SelectorExpr:
			e = x.X
		default:
			return ""
		}
	}
}
