package partition_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"redotheory/internal/core"
	"redotheory/internal/graph"
	"redotheory/internal/install"
	"redotheory/internal/model"
	"redotheory/internal/partition"
)

func logOf(ops ...*model.Op) *core.Log {
	l := core.NewLog()
	for _, o := range ops {
		l.Append(o)
	}
	return l
}

func allOps(l *core.Log) graph.Set[model.OpID] {
	s := graph.NewSet[model.OpID]()
	for _, r := range l.Records() {
		s.Add(r.Op.ID())
	}
	return s
}

// planOf plans the records of l whose operation ids are in redo, handing
// FromViews the log's view and the replay list in LSN order, as the
// decision phase would.
func planOf(l *core.Log, redo graph.Set[model.OpID]) (*core.LogView, *partition.Plan) {
	lv := core.NewLogView(l)
	var replayIdx []int
	for i, r := range l.Records() {
		if redo.Has(r.Op.ID()) {
			replayIdx = append(replayIdx, i)
		}
	}
	return lv, partition.FromViews(lv.Views, replayIdx, lv.In.Len())
}

// componentIDs renders a plan in WeakComponents' shape: members
// sorted by operation id, components by smallest member.
func componentIDs(lv *core.LogView, p *partition.Plan) [][]model.OpID {
	out := make([][]model.OpID, len(p.Components))
	for i, c := range p.Components {
		for _, vi := range c.Idx {
			out[i] = append(out[i], lv.Views[vi].Rec.Op.ID())
		}
		slices.Sort(out[i])
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

func rw(id model.OpID, reads, writes []model.Var) *model.Op {
	return model.ReadWrite(id, "op", reads, writes)
}

func v(s string) model.Var { return model.Var(s) }

func TestPlanSplitsIndependentChains(t *testing.T) {
	// Two per-variable chains and one isolated blind write.
	l := logOf(
		rw(1, nil, []model.Var{v("x")}),
		rw(2, nil, []model.Var{v("y")}),
		rw(3, []model.Var{v("x")}, []model.Var{v("x")}),
		rw(4, []model.Var{v("y")}, []model.Var{v("y")}),
		rw(5, nil, []model.Var{v("z")}),
	)
	lv, p := planOf(l, allOps(l))
	want := [][]model.OpID{{1, 3}, {2, 4}, {5}}
	if got := componentIDs(lv, p); !reflect.DeepEqual(got, want) {
		t.Errorf("components = %v, want %v", got, want)
	}
	if p.Ops != 5 || p.MaxComponentLen() != 2 {
		t.Errorf("Ops = %d, MaxComponentLen = %d", p.Ops, p.MaxComponentLen())
	}
	st := p.Stats()
	if st.Ops != 5 || st.Components != 3 || st.Largest != 2 {
		t.Errorf("Stats = %+v", st)
	}
}

func TestPlanFusesAllPendingReadersWithFirstWriter(t *testing.T) {
	// Two readers of x appear before x's first scheduled writer: both must
	// observe the pre-write value, so both fuse with the writer — and
	// transitively with each other.
	l := logOf(
		rw(1, []model.Var{v("x")}, []model.Var{v("a")}),
		rw(2, []model.Var{v("x")}, []model.Var{v("b")}),
		rw(3, nil, []model.Var{v("x")}),
	)
	lv, p := planOf(l, allOps(l))
	want := [][]model.OpID{{1, 2, 3}}
	if got := componentIDs(lv, p); !reflect.DeepEqual(got, want) {
		t.Errorf("components = %v, want %v", got, want)
	}
}

func TestPlanReadersOfStableVariableStayIndependent(t *testing.T) {
	// No scheduled operation writes q, so q is stable throughout replay
	// and its readers need no mutual ordering; both gate a write to q.
	l := logOf(
		rw(1, []model.Var{v("q")}, []model.Var{v("a")}),
		rw(2, []model.Var{v("q")}, []model.Var{v("b")}),
	)
	lv, p := planOf(l, allOps(l))
	want := [][]model.OpID{{1}, {2}}
	if got := componentIDs(lv, p); !reflect.DeepEqual(got, want) {
		t.Errorf("components = %v, want %v", got, want)
	}
	q, _ := lv.In.Lookup(v("q"))
	if got := p.ReaderIndex(lv.Views, lv.In.Len())[q]; !reflect.DeepEqual(got, []int32{0, 1}) {
		t.Errorf("readers of q = %v, want [0 1]", got)
	}
	if got := p.WriterIndex(lv.In.Len())[q]; got != -1 {
		t.Errorf("writer of q = %d, want -1", got)
	}
}

func TestPlanKeepsLSNOrderWithinComponents(t *testing.T) {
	l := logOf(
		rw(1, nil, []model.Var{v("x")}),
		rw(2, nil, []model.Var{v("y")}),
		rw(3, []model.Var{v("x")}, []model.Var{v("x")}),
		rw(4, []model.Var{v("x"), v("y")}, []model.Var{v("y")}),
	)
	lv, p := planOf(l, allOps(l))
	if len(p.Components) != 1 {
		t.Fatalf("expected one fused component, got %d", len(p.Components))
	}
	var lsns []core.LSN
	for _, vi := range p.Components[0].Idx {
		lsns = append(lsns, lv.Views[vi].Rec.LSN)
	}
	if !slices.IsSorted(lsns) {
		t.Errorf("component records out of LSN order: %v", lsns)
	}
}

func TestPlanFiltersByRedoSet(t *testing.T) {
	l := logOf(
		rw(1, nil, []model.Var{v("x")}),
		rw(2, []model.Var{v("x")}, []model.Var{v("x")}),
		rw(3, []model.Var{v("x")}, []model.Var{v("x")}),
	)
	// Only op 3 is uninstalled: x's earlier writers are stable, so the
	// plan is a single singleton component.
	lv, p := planOf(l, graph.NewSet[model.OpID](3))
	want := [][]model.OpID{{3}}
	if got := componentIDs(lv, p); !reflect.DeepEqual(got, want) {
		t.Errorf("components = %v, want %v", got, want)
	}
	if p.Ops != 1 {
		t.Errorf("Ops = %d, want 1", p.Ops)
	}
}

func TestPlanWritesAreDisjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := randomLog(rng, 40, 6)
	_, p := planOf(l, allOps(l))
	seen := make(map[uint32]int)
	for ci, c := range p.Components {
		for _, x := range c.Writes {
			if prev, dup := seen[x]; dup {
				t.Fatalf("variable %d written by components %d and %d", x, prev, ci)
			}
			seen[x] = ci
		}
	}
}

// randomLog builds a log of n operations with random read and write sets
// over nv variables.
func randomLog(rng *rand.Rand, n, nv int) *core.Log {
	vars := make([]model.Var, nv)
	for i := range vars {
		vars[i] = model.Var(string(rune('a' + i)))
	}
	l := core.NewLog()
	for i := 1; i <= n; i++ {
		var reads, writes []model.Var
		for _, x := range vars {
			if rng.Float64() < 0.25 {
				reads = append(reads, x)
			}
			if rng.Float64() < 0.2 {
				writes = append(writes, x)
			}
		}
		if len(writes) == 0 { // every logged operation changes state
			writes = append(writes, vars[rng.Intn(nv)])
		}
		l.Append(rw(model.OpID(i), reads, writes))
	}
	return l
}

// randomAccessLog builds a log of n operations over the given variables
// with random read/write sets (1–3 writes, 0–3 reads each).
func randomAccessLog(n, vars int, seed int64) *core.Log {
	rng := rand.New(rand.NewSource(seed))
	names := make([]model.Var, vars)
	for i := range names {
		names[i] = model.Var(fmt.Sprintf("v%d", i))
	}
	pick := func(k int) []model.Var {
		if k > len(names) {
			k = len(names)
		}
		out := make([]model.Var, 0, k)
		seen := make(map[model.Var]bool, k)
		for len(out) < k {
			v := names[rng.Intn(len(names))]
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
		return out
	}
	l := core.NewLog()
	for i := 0; i < n; i++ {
		l.Append(model.ReadWrite(model.OpID(i+1), fmt.Sprintf("op%d", i+1),
			pick(rng.Intn(4)), pick(1+rng.Intn(3))))
	}
	return l
}

// installedPrefixRedo draws an in-contract redo set: the complement of a
// prefix of some installation-graph linearization, the shape the
// Recovery Invariant gives the installed set.
func installedPrefixRedo(t *testing.T, l *core.Log, rng *rand.Rand) graph.Set[model.OpID] {
	t.Helper()
	topo, err := install.FromConflict(l.ConflictGraph()).DAG().TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	return graph.NewSet[model.OpID](topo[rng.Intn(len(topo)+1):]...)
}

// TestPlanMatchesConflictComponents is the agreement the package comment
// promises: when the installed complement is an installation-graph
// prefix (the Recovery Invariant's shape), the planner's interference
// components equal the weakly-connected components of the conflict graph
// restricted to the redo set.
func TestPlanMatchesConflictComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		l := randomLog(rng, 5+rng.Intn(30), 2+rng.Intn(6))
		redo := installedPrefixRedo(t, l, rng)
		got := componentIDs(planOf(l, redo))
		want := l.ConflictGraph().DAG().WeakComponents(redo)
		if len(want) == 0 {
			want = [][]model.OpID{}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: plan components %v != conflict components %v", trial, got, want)
		}
	}
}

// TestFromViewsMatchesConflictComponents checks the whole plan FromViews
// returns against the paper's definition over a second access pattern:
// its components are the conflict components of an in-contract redo
// set, each component's Writes is exactly the ascending union of its
// records' writes, and the schedule tables (Idx, Of) interleave the
// components' schedules back into the replay list. This is the
// correspondence the parallel and serve engines' correctness reduces to.
func TestFromViewsMatchesConflictComponents(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		l := randomAccessLog(30, 2+int(seed)%7, seed)
		rng := rand.New(rand.NewSource(seed * 31))
		redo := installedPrefixRedo(t, l, rng)
		if seed%5 == 0 {
			redo = allOps(l) // the empty installed prefix
		}
		lv, got := planOf(l, redo)

		want := l.ConflictGraph().DAG().WeakComponents(redo)
		if len(want) == 0 {
			want = [][]model.OpID{}
		}
		if ids := componentIDs(lv, got); !reflect.DeepEqual(ids, want) {
			t.Fatalf("seed %d: plan components %v != conflict components %v", seed, ids, want)
		}
		if got.Ops != len(redo) || len(got.Idx) != len(redo) {
			t.Fatalf("seed %d: plan schedules %d ops (%d indexes), redo set has %d", seed, got.Ops, len(got.Idx), len(redo))
		}
		for ci, c := range got.Components {
			var writes []uint32
			for _, vi := range c.Idx {
				writes = append(writes, lv.Views[vi].Writes()...)
			}
			slices.Sort(writes)
			if writes = slices.Compact(writes); !slices.Equal(c.Writes, writes) {
				t.Fatalf("seed %d component %d: Writes %v, its records write %v", seed, ci, c.Writes, writes)
			}
		}
		// Walking the component table in log order visits every
		// component's records in its own order, each exactly once.
		next := make([]int, len(got.Components))
		for i, vi := range got.Idx {
			if i > 0 && got.Idx[i-1] >= vi {
				t.Fatalf("seed %d: plan Idx not in LSN order at %d", seed, i)
			}
			ci := got.Of[i]
			if c := got.Components[ci]; next[ci] >= len(c.Idx) || c.Idx[next[ci]] != vi {
				t.Fatalf("seed %d: Of[%d] = %d, but record %d is not that component's next", seed, i, ci, vi)
			}
			next[ci]++
		}
		for ci, c := range got.Components {
			if next[ci] != len(c.Idx) {
				t.Fatalf("seed %d component %d: table names %d of its %d records", seed, ci, next[ci], len(c.Idx))
			}
		}
	}
}

// TestPlanCoarsensConflictComponentsOutOfContract: on an arbitrary redo
// set — a faulted run whose installed set is no installation-graph
// prefix — the two constructions can differ, because conflict edges only
// chain consecutive accessors and an installed middle writer breaks the
// restricted chain. The plan errs on the safe side: it only ever fuses
// more (every restricted conflict component lies inside one plan
// component), and it stays closed — components write disjoint ids and
// no component reads an id another writes — so partitioned replay still
// equals sequential replay.
func TestPlanCoarsensConflictComponentsOutOfContract(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		l := randomLog(rng, 5+rng.Intn(30), 2+rng.Intn(6))
		cg := l.ConflictGraph()
		redo := graph.NewSet[model.OpID]()
		for _, r := range l.Records() {
			if rng.Float64() < 0.5 {
				redo.Add(r.Op.ID())
			}
		}

		lv, plan := planOf(l, redo)
		compOf := make(map[model.OpID]int)
		owner := make(map[uint32]int)
		for ci, c := range plan.Components {
			for _, vi := range c.Idx {
				compOf[lv.Views[vi].Rec.Op.ID()] = ci
			}
			for _, x := range c.Writes {
				if prev, dup := owner[x]; dup {
					t.Fatalf("trial %d: id %d written by components %d and %d", trial, x, prev, ci)
				}
				owner[x] = ci
			}
		}
		for ci, c := range plan.Components {
			for _, vi := range c.Idx {
				for _, x := range lv.Views[vi].Reads() {
					if w, ok := owner[x]; ok && w != ci {
						t.Fatalf("trial %d: component %d reads id %d, which component %d writes", trial, ci, x, w)
					}
				}
			}
		}
		for _, cc := range cg.DAG().WeakComponents(redo) {
			for _, id := range cc[1:] {
				if compOf[id] != compOf[cc[0]] {
					t.Fatalf("trial %d: conflict component %v split across plan components", trial, cc)
				}
			}
		}
	}
}

// TestPlanCoarserThanInstallOnChainGap pins the concrete out-of-contract
// shape down: writers W1→W2→W3 of x with W2 installed. The restricted
// conflict graph has no W1–W3 edge (WW edges chain consecutive writers
// only), yet both replay against x, so the plan must fuse them.
func TestPlanCoarserThanInstallOnChainGap(t *testing.T) {
	l := logOf(
		rw(1, nil, []model.Var{v("x")}),
		rw(2, nil, []model.Var{v("x")}),
		rw(3, nil, []model.Var{v("x")}),
	)
	redo := graph.NewSet[model.OpID](1, 3)
	conf := l.ConflictGraph().DAG().WeakComponents(redo)
	if want := [][]model.OpID{{1}, {3}}; !reflect.DeepEqual(conf, want) {
		t.Errorf("conflict components = %v, want %v", conf, want)
	}
	got := componentIDs(planOf(l, redo))
	if want := [][]model.OpID{{1, 3}}; !reflect.DeepEqual(got, want) {
		t.Errorf("plan components = %v, want %v", got, want)
	}
}

// TestInstallComponentsDropReadDependencies demonstrates the gap the
// package comment describes: the installation graph drops the pure
// write-read edge A→B, so its components would let B replay without A —
// feeding B a stale read. The conflict components (and the plan) keep
// them fused.
func TestInstallComponentsDropReadDependencies(t *testing.T) {
	l := logOf(
		rw(1, nil, []model.Var{v("x")}),                 // A: blind write x
		rw(2, []model.Var{v("x")}, []model.Var{v("y")}), // B: recomputes y from x
	)
	redo := allOps(l)
	cg := l.ConflictGraph()
	ig := install.FromConflict(cg)

	conf := cg.DAG().WeakComponents(redo)
	if want := [][]model.OpID{{1, 2}}; !reflect.DeepEqual(conf, want) {
		t.Errorf("conflict components = %v, want %v", conf, want)
	}
	inst := ig.DAG().WeakComponents(redo)
	if want := [][]model.OpID{{1}, {2}}; !reflect.DeepEqual(inst, want) {
		t.Errorf("installation components = %v, want %v (the dropped WR edge)", inst, want)
	}
	if got, want := componentIDs(planOf(l, redo)), [][]model.OpID{{1, 2}}; !reflect.DeepEqual(got, want) {
		t.Errorf("plan components = %v, want %v", got, want)
	}
}

// TestInstallComponentsMatchForBlindWrites: with no read sets there are
// no write-read edges to drop, so the installation graph's components are
// exactly the conflict components — Theorem 3's special case.
func TestInstallComponentsMatchForBlindWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vars := []model.Var{v("x"), v("y"), v("z")}
	l := core.NewLog()
	for i := 1; i <= 25; i++ {
		l.Append(rw(model.OpID(i), nil, []model.Var{vars[rng.Intn(len(vars))]}))
	}
	redo := allOps(l)
	cg := l.ConflictGraph()
	ig := install.FromConflict(cg)
	conf := cg.DAG().WeakComponents(redo)
	inst := ig.DAG().WeakComponents(redo)
	if !reflect.DeepEqual(conf, inst) {
		t.Errorf("blind-write components differ: conflict %v, install %v", conf, inst)
	}
}

// TestFromViewsEmptyReplay: an empty replay set plans to nothing, and
// its gate tables name no writer and no reader.
func TestFromViewsEmptyReplay(t *testing.T) {
	l := randomAccessLog(5, 3, 1)
	lv := core.NewLogView(l)
	p := partition.FromViews(lv.Views, nil, lv.In.Len())
	if p.Ops != 0 || len(p.Components) != 0 {
		t.Fatalf("empty replay planned %d ops in %d components", p.Ops, len(p.Components))
	}
	if p.MaxComponentLen() != 0 {
		t.Fatalf("empty plan has critical path %d", p.MaxComponentLen())
	}
	readers := p.ReaderIndex(lv.Views, lv.In.Len())
	for id, w := range p.WriterIndex(lv.In.Len()) {
		if w != -1 || readers[id] != nil {
			t.Fatalf("empty plan: writer[%d] = %d, readers[%d] = %v", id, w, id, readers[id])
		}
	}
}

// TestWriterReaderIndexes: the serve-engine gate indexes must invert
// the plan exactly — WriterIndex maps a variable to the unique
// component writing it (components write disjoint variables) and
// ReaderIndex lists, strictly ascending, exactly the components whose
// replay reads the variable without writing it. Replay lists cover the
// whole log, random subsets, and suffixes (the pooled tail's shape).
func TestWriterReaderIndexes(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		l := randomAccessLog(30, 2+int(seed)%7, seed)
		if seed > 20 {
			// Many variables, few writes: a third of the ids stay
			// stable, so many components share reader lists.
			l = randomAccessLog(20, 40, seed)
		}
		lv := core.NewLogView(l)
		rng := rand.New(rand.NewSource(seed * 17))
		var full, subset []int
		for i := 0; i < l.Len(); i++ {
			full = append(full, i)
			if rng.Float64() < 0.6 {
				subset = append(subset, i)
			}
		}
		lists := map[string][]int{"full": full, "subset": subset, "suffix": full[rng.Intn(len(full)+1):]}
		for name, replayIdx := range lists {
			p := partition.FromViews(lv.Views, replayIdx, lv.In.Len())
			checkIndexes(t, fmt.Sprintf("seed %d %s", seed, name), lv, p)
		}
	}
}

// checkIndexes compares p's gate tables with ones derived from its
// components.
func checkIndexes(t *testing.T, at string, lv *core.LogView, p *partition.Plan) {
	t.Helper()
	writer := p.WriterIndex(lv.In.Len())
	readers := p.ReaderIndex(lv.Views, lv.In.Len())
	if len(writer) != lv.In.Len() || len(readers) != lv.In.Len() {
		t.Fatalf("%s: tables cover %d and %d ids, interner has %d", at, len(writer), len(readers), lv.In.Len())
	}
	wantWriter := make([]int32, lv.In.Len())
	for i := range wantWriter {
		wantWriter[i] = -1
	}
	wantReaders := make([]map[int32]bool, lv.In.Len())
	for ci, c := range p.Components {
		for _, id := range c.Writes {
			if wantWriter[id] != -1 {
				t.Fatalf("%s: variable %d written by components %d and %d", at, id, wantWriter[id], ci)
			}
			wantWriter[id] = int32(ci)
		}
		for _, vi := range c.Idx {
			for _, id := range lv.Views[vi].Reads() {
				if wantReaders[id] == nil {
					wantReaders[id] = map[int32]bool{}
				}
				wantReaders[id][int32(ci)] = true
			}
		}
	}
	for id := 0; id < lv.In.Len(); id++ {
		if writer[id] != wantWriter[id] {
			t.Fatalf("%s: writer[%d] = %d, want %d", at, id, writer[id], wantWriter[id])
		}
		seen := map[int32]bool{}
		for k, ci := range readers[id] {
			if k > 0 && readers[id][k-1] >= ci {
				t.Fatalf("%s: readers[%d] = %v, not strictly ascending", at, id, readers[id])
			}
			seen[ci] = true
			if ci == writer[id] {
				t.Fatalf("%s: readers[%d] lists its own writer %d", at, id, ci)
			}
			if !wantReaders[id][ci] {
				t.Fatalf("%s: readers[%d] lists component %d, which never reads it", at, id, ci)
			}
		}
		for ci := range wantReaders[id] {
			if ci != writer[id] && !seen[ci] {
				t.Fatalf("%s: readers[%d] misses reading component %d", at, id, ci)
			}
		}
	}
}
