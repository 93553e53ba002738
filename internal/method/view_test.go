package method_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"redotheory/internal/core"
	"redotheory/internal/method"
	"redotheory/internal/model"
	"redotheory/internal/serve"
	"redotheory/internal/workload"
)

// TestLogCarriesItsView pins what a log's dense view means, on every
// method × workload shape × crash point, after every operation that
// changes which records a log holds: Append (each Exec), Prefix (the
// stable log and a cut at every record), TruncateBefore (checkpointed
// truncation), wal.Crash followed by Append, TearStableTail and
// RepairTail. A log's view
//
//   - resolves every record's ids to its operation's variables,
//     index-for-index (In.Var(v.Reads[k]) == Op.Reads()[k], and writes);
//   - gives distinct variables distinct ids below In.Len(), and names
//     exactly the variables the log's records named, truncated ones
//     included: In.Len() counts them;
//   - in a prefix, reports a variable first named after the cut absent.
//
// named tracks, for the log's lineage, the LSN of the record that first
// named each variable; a cut forgets the variables first named past it.
func TestLogCarriesItsView(t *testing.T) {
	pages := workload.Pages(6)
	method.EachFactory(func(name string, mk func(*model.State) method.DB) {
		shapes, err := workload.ShapesFor(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, shape := range shapes {
			ops := shape.Gen(24, pages, 3)
			for _, crash := range []int{0, len(ops) / 2, len(ops)} {
				t.Run(fmt.Sprintf("%s/%s/crash=%d", name, shape.Name, crash), func(t *testing.T) {
					viewLifecycle(t, mk(workload.InitialState(pages)), ops[:crash], len(ops))
				})
			}
		}
	})
}

// viewLifecycle runs ops with random forces, checkpoints and
// truncations, crashes, appends post-crash operations (some on
// variables the stable log never named), tears the stable tail and
// repairs it, checking the view after every step.
func viewLifecycle(t *testing.T, db method.DB, ops []*model.Op, nextID int) {
	rng := rand.New(rand.NewSource(int64(len(ops))))
	named := map[model.Var]core.LSN{}
	check := func(step string) {
		t.Helper()
		live := db.WAL().Log()
		for x, lsn := range named {
			if lsn >= live.NextLSN() {
				delete(named, x)
			}
		}
		checkLogView(t, step, live, named, live.NextLSN()-1)
		stable := db.StableLog()
		checkLogView(t, step+": stable log", stable, named, db.WAL().StableLSN())
		for _, r := range live.Records() {
			checkLogView(t, fmt.Sprintf("%s: prefix through %d", step, r.LSN), live.Prefix(r.LSN), named, r.LSN)
		}
	}
	exec := func(op *model.Op) {
		t.Helper()
		from := db.WAL().NextLSN()
		if err := db.Exec(op); err != nil {
			t.Fatalf("exec %s: %v", op, err)
		}
		// Name what the method logged, which need not be op itself
		// (physical logging records the values written).
		for _, r := range db.WAL().Log().Records() {
			if r.LSN < from {
				continue
			}
			for _, x := range append(r.Op.Reads(), r.Op.Writes()...) {
				if _, ok := named[x]; !ok {
					named[x] = r.LSN
				}
			}
		}
		check(fmt.Sprintf("append %s", op))
	}

	for _, op := range ops {
		exec(op)
		switch p := rng.Float64(); {
		case p < 0.3:
			db.FlushLog()
		case p < 0.45:
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if _, err := db.(method.Truncator).TruncateCheckpointed(); err != nil {
				t.Fatal(err)
			}
			check("truncate")
		}
		for db.FlushOne() {
		}
	}
	db.Crash()
	check("crash")
	post := func(x model.Var) {
		nextID++
		exec(model.ReadWrite(model.OpID(nextID), "post", []model.Var{x}, []model.Var{x}))
	}
	for i := 0; i < 3; i++ {
		post(model.Var(fmt.Sprintf("fresh%d", i)))
		post(workload.Pages(6)[i])
	}
	db.FlushLog()
	db.WAL().TearStableTail(2)
	check("tear")
	db.WAL().RepairTail()
	check("repair")
	post("fresh0")
	post("fresh9")
}

// checkLogView checks l's view against named: the variables first named
// through upTo must resolve, the later ones must be absent.
func checkLogView(t *testing.T, step string, l *core.Log, named map[model.Var]core.LSN, upTo core.LSN) {
	t.Helper()
	lv := core.NewLogView(l)
	if len(lv.Views) != l.Len() {
		t.Fatalf("%s: %d record views for %d records", step, len(lv.Views), l.Len())
	}
	for i, r := range l.Records() {
		v := &lv.Views[i]
		if v.Rec != r {
			t.Fatalf("%s: view %d is of %v, want %v", step, i, v.Rec.Op, r.Op)
		}
		for _, side := range []struct {
			ids  []uint32
			vars []model.Var
		}{{v.Reads(), r.Op.Reads()}, {v.Writes(), r.Op.Writes()}} {
			if len(side.ids) != len(side.vars) {
				t.Fatalf("%s: %s has %d ids for %d variables", step, r.Op, len(side.ids), len(side.vars))
			}
			for k, id := range side.ids {
				if int(id) >= lv.In.Len() || lv.In.Var(id) != side.vars[k] {
					t.Fatalf("%s: %s: id %d of %d does not resolve to %s", step, r.Op, id, lv.In.Len(), side.vars[k])
				}
			}
		}
	}
	want := 0
	for x, lsn := range named {
		id, ok := lv.In.Lookup(x)
		switch {
		case lsn > upTo && ok:
			t.Fatalf("%s: %s, first named at LSN %d, has id %d in a log through %d", step, x, lsn, id, upTo)
		case lsn <= upTo && (!ok || int(id) >= lv.In.Len() || lv.In.Var(id) != x):
			t.Fatalf("%s: %s, first named at LSN %d, has no id of its own (%d, %v)", step, x, lsn, id, ok)
		}
		if lsn <= upTo {
			want++
		}
	}
	if lv.In.Len() != want {
		t.Fatalf("%s: interner holds %d ids, the log's records name %d variables", step, lv.In.Len(), want)
	}
}

// TestDroppedLogsFreeTheirViews bounds the live heap of a process that
// recovers many logs: twenty crashed physiological DBs of 20 k hot-page
// operations are each recovered sequentially, in parallel and by a
// drained serve engine, and audited by the invariant checker, then
// dropped. Nothing may keep a dropped log, its view or its graphs
// reachable, so the live heap afterwards must be at most 1.25x the live
// heap with one such DB held. Process-wide view and graph memos kept
// every recovered view and audited log's graphs, and with them the log,
// alive.
func TestDroppedLogsFreeTheirViews(t *testing.T) {
	const dbs, n = 20, 20000
	ps := workload.Pages(32)
	crashed := func(seed int64) method.DB {
		db := method.NewPhysiological(workload.InitialState(ps))
		for _, op := range workload.HotPage(n, ps, seed) {
			if err := db.Exec(op); err != nil {
				t.Fatal(err)
			}
		}
		db.FlushLog()
		db.Crash()
		return db
	}
	recoverAll := func(db method.DB) {
		if _, err := method.Recover(db); err != nil {
			t.Fatal(err)
		}
		if _, err := method.RecoverParallel(db, method.ParallelOptions{Workers: 2}); err != nil {
			t.Fatal(err)
		}
		eng, err := serve.New(db, serve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		if err := eng.Drain(); err != nil {
			t.Fatal(err)
		}
		sv := method.Survivors(db)
		ck, err := core.NewChecker(sv.Log, db.RecoveryBase())
		if err != nil {
			t.Fatal(err)
		}
		if rep := ck.Check(sv.State, sv.Log, sv.Checkpoint, sv.Redo, sv.Analyze, false); !rep.OK {
			t.Fatal(rep.Summary())
		}
	}
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	held := crashed(1)
	recoverAll(held)
	one := live()
	runtime.KeepAlive(held)
	held = nil
	for seed := int64(2); seed < 2+dbs; seed++ {
		recoverAll(crashed(seed))
	}
	after := live()
	t.Logf("live heap: %.1f MB with one DB held, %.1f MB after %d dropped", float64(one)/1e6, float64(after)/1e6, dbs)
	if float64(after) > 1.25*float64(one) {
		t.Errorf("live heap after dropping %d recovered DBs is %.1f MB, over 1.25x the %.1f MB with one held", dbs, float64(after)/1e6, float64(one)/1e6)
	}
}
