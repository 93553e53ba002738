package shard

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"testing"

	"redotheory/internal/method"
	"redotheory/internal/model"
	"redotheory/internal/workload"
)

// eligibleMethods mirrors sim.DefaultMethods minus physical (whose
// per-page blind records carry no single record for the vector). The
// shard package cannot import sim (sim's sharded builder imports
// shard), so the table is restated here.
var eligibleMethods = []struct {
	name string
	mk   Factory
}{
	{"logical", func(s *model.State) method.DB { return method.NewLogical(s) }},
	{"physiological", func(s *model.State) method.DB { return method.NewPhysiological(s) }},
	{"physiological+dpt", func(s *model.State) method.DB { return method.NewPhysiologicalDPT(s) }},
	{"genlsn", func(s *model.State) method.DB { return method.NewGenLSN(s) }},
	{"genlsn+mv", func(s *model.State) method.DB { return method.NewGenLSNMV(s) }},
	{"grouplsn", func(s *model.State) method.DB { return method.NewGroupLSN(s) }},
}

func TestEligible(t *testing.T) {
	for _, m := range eligibleMethods {
		if !Eligible(m.name) {
			t.Errorf("Eligible(%q) = false", m.name)
		}
	}
	if Eligible("physical") {
		t.Error("Eligible(physical) = true; physical logging has no one-record-per-op vector carrier")
	}
}

func TestRouterSplitPartitionsState(t *testing.T) {
	pages := workload.Pages(16)
	initial := workload.InitialState(pages)
	r := newRouter(4)
	parts := r.Split(initial)
	seen := make(map[model.Var]int)
	for i, part := range parts {
		for _, x := range part.Vars() {
			if prev, dup := seen[x]; dup {
				t.Fatalf("%q on shards %d and %d", x, prev, i)
			}
			seen[x] = i
			if i != r.Shard(x) {
				t.Errorf("%q on shard %d, router says %d", x, i, r.Shard(x))
			}
			if part.Get(x) != initial.Get(x) {
				t.Errorf("%q split with wrong value", x)
			}
		}
	}
	if len(seen) != len(pages) {
		t.Errorf("split covers %d of %d pages", len(seen), len(pages))
	}
}

// TestRouterAssignmentsGolden pins the routing function itself: the
// shard of each of workload.Pages(64) under hash/fnv's 32-bit FNV-1a
// mod N, recorded before Router.Shard inlined the hash. A changed
// assignment would silently re-home every fixture's variables.
func TestRouterAssignmentsGolden(t *testing.T) {
	for n, want := range map[int]string{
		4: "0321032103123012301221032103213012301230032103210312301230122103",
		7: "5316420505024661352464310542166124501346420553162035024613132064",
	} {
		r := newRouter(n)
		for k, p := range workload.Pages(64) {
			if got := r.Shard(p); got != int(want[k]-'0') {
				t.Errorf("router ×%d: %q on shard %d, golden says %c", n, p, got, want[k])
			}
			h := fnv.New32a()
			h.Write([]byte(p))
			if ref := int(h.Sum32() % uint32(n)); r.Shard(p) != ref {
				t.Errorf("router ×%d: %q on shard %d, hash/fnv says %d", n, p, r.Shard(p), ref)
			}
		}
	}
}

// TestParticipantsSortedAndDistinct holds participants to the set-and-
// sort it replaced, over operations touching one to three shards.
func TestParticipantsSortedAndDistinct(t *testing.T) {
	pages := workload.Pages(24)
	d := New(func(s *model.State) method.DB { return method.NewLogical(s) }, 7, workload.InitialState(pages))
	ops, err := CrossHistory("logical", 200, pages, d.Router(), 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	ops = append(ops, model.ReadWrite(201, "wide", pages[:9], pages[4:12]))
	for _, op := range ops {
		seen := make(map[int]bool)
		for _, x := range append(append([]model.Var(nil), op.Reads()...), op.Writes()...) {
			seen[d.Router().Shard(x)] = true
		}
		var want []int
		for i := range seen {
			want = append(want, i)
		}
		sort.Ints(want)
		if got := d.participants(op); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("participants(%s) = %v, want %v", op, got, want)
		}
	}
}

// twoShardPages returns one page owned by shard 0 and one by shard 1
// of a 2-shard router.
func twoShardPages(t *testing.T, r *Router, pages []model.Var) (model.Var, model.Var) {
	t.Helper()
	var a, b model.Var
	for _, p := range pages {
		switch r.Shard(p) {
		case 0:
			if a == "" {
				a = p
			}
		case 1:
			if b == "" {
				b = p
			}
		}
	}
	if a == "" || b == "" {
		t.Fatal("fixture pages do not cover both shards")
	}
	return a, b
}

func TestCrossExecStampsAllParticipants(t *testing.T) {
	pages := workload.Pages(8)
	d := New(func(s *model.State) method.DB { return method.NewLogical(s) }, 2, workload.InitialState(pages))
	a, b := twoShardPages(t, d.Router(), pages)

	xfer := model.ReadWrite(1, "xfer", []model.Var{a, b}, []model.Var{a, b})
	if err := d.Exec(xfer); err != nil {
		t.Fatal(err)
	}
	if d.CrossTxns() != 1 {
		t.Errorf("CrossTxns = %d, want 1", d.CrossTxns())
	}
	d.FlushLog(0)
	d.FlushLog(1)

	txns, err := d.StableTxns()
	if err != nil {
		t.Fatal(err)
	}
	if len(txns) != 1 || txns[0].ID != 1 {
		t.Fatalf("StableTxns = %+v, want one txn with id 1", txns)
	}
	if len(txns[0].Vec) != 2 {
		t.Errorf("vector %v, want entries for both shards", txns[0].Vec)
	}
	for i := 0; i < 2; i++ {
		r := d.Shard(i).StableLog().Records()
		if len(r) != 1 {
			t.Fatalf("shard %d has %d stable records, want 1", i, len(r))
		}
		if r[0].Labels[LabelTxn] != "1" {
			t.Errorf("shard %d record labels %v lack the txn id", i, r[0].Labels)
		}
		if r[0].Labels[LabelVec] == "" {
			t.Errorf("shard %d record carries no sequence vector", i)
		}
		if !strings.Contains(r[0].Op.Name(), "~t1") {
			t.Errorf("shard %d logged %q, want a projection of txn 1", i, r[0].Op.Name())
		}
		if txns[0].Vec[i] != r[0].LSN {
			t.Errorf("shard %d vector entry %d, record at %d", i, txns[0].Vec[i], r[0].LSN)
		}
	}
}

func TestCrossExecBakesOnlyRemoteReads(t *testing.T) {
	pages := workload.Pages(8)
	d := New(func(s *model.State) method.DB { return method.NewPhysiological(s) }, 2, workload.InitialState(pages))
	a, b := twoShardPages(t, d.Router(), pages)

	// pull: reads a (local) and b (remote), writes a. Shard 1 becomes a
	// read-only participant and must contribute no record, only deps.
	pull := model.ReadWrite(1, "pull", []model.Var{a, b}, []model.Var{a})
	if err := d.Exec(pull); err != nil {
		t.Fatal(err)
	}
	if got := d.Shard(1).WAL().Log().Len(); got != 0 {
		t.Errorf("read-only participant logged %d records, want 0", got)
	}
	d.FlushLog(0)
	txns, err := d.StableTxns()
	if err != nil {
		t.Fatal(err)
	}
	if len(txns) != 1 {
		t.Fatalf("StableTxns = %+v", txns)
	}
	if _, ok := txns[0].Vec[1]; ok {
		t.Error("read-only participant appears in the write vector")
	}
	// Shard 1's log is empty, so the observed frontier is 0 and no dep
	// needs recording; exec against a non-empty remote log must record
	// one.
	upd := model.ReadWrite(2, "upd", []model.Var{b}, []model.Var{b})
	if err := d.Exec(upd); err != nil {
		t.Fatal(err)
	}
	if err := d.Exec(model.ReadWrite(3, "pull", []model.Var{a, b}, []model.Var{a})); err != nil {
		t.Fatal(err)
	}
	d.FlushLog(0)
	d.FlushLog(1)
	txns, err = d.StableTxns()
	if err != nil {
		t.Fatal(err)
	}
	last := txns[len(txns)-1]
	if floor, ok := last.Deps[1]; !ok || floor == 0 {
		t.Errorf("txn 3 deps = %v, want an observed frontier for shard 1", last.Deps)
	}
}

func TestExecRefusesFrozenParticipants(t *testing.T) {
	pages := workload.Pages(8)
	d := New(func(s *model.State) method.DB { return method.NewLogical(s) }, 2, workload.InitialState(pages))
	a, b := twoShardPages(t, d.Router(), pages)

	d.Freeze(1)
	err := d.Exec(model.ReadWrite(1, "xfer", []model.Var{a, b}, []model.Var{a, b}))
	if !errors.Is(err, ErrShardDown) {
		t.Fatalf("cross exec on a frozen shard: %v, want ErrShardDown", err)
	}
	if got := d.Shard(0).WAL().Log().Len(); got != 0 {
		t.Errorf("refused txn left %d records on the live shard", got)
	}
	if err := d.Exec(model.ReadWrite(2, "upd", []model.Var{a}, []model.Var{a})); err != nil {
		t.Errorf("single-shard exec on the live shard: %v", err)
	}
	if err := d.Exec(model.ReadWrite(3, "upd", []model.Var{b}, []model.Var{b})); !errors.Is(err, ErrShardDown) {
		t.Errorf("single-shard exec on the frozen shard: %v, want ErrShardDown", err)
	}
}

func TestCertificationGateBlocksInstalls(t *testing.T) {
	pages := workload.Pages(8)
	d := New(func(s *model.State) method.DB { return method.NewPhysiological(s) }, 2, workload.InitialState(pages))
	a, b := twoShardPages(t, d.Router(), pages)

	if err := d.Exec(model.ReadWrite(1, "xfer", []model.Var{a, b}, []model.Var{a, b})); err != nil {
		t.Fatal(err)
	}
	d.FlushLog(0) // record stable, WAL would allow the install
	if d.FlushOne(0) {
		t.Fatal("install went through with an uncertified cross-shard record in the log")
	}
	if err := d.Checkpoint(0); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Shard(0).CheckpointBound(); ok {
		t.Fatal("checkpoint went through with an uncertified cross-shard record in the log")
	}

	d.FlushLog(1)
	cut, err := d.Certify()
	if err != nil {
		t.Fatal(err)
	}
	if len(cut.Dropped) != 0 {
		t.Fatalf("fully durable txn dropped: %+v", cut.Dropped)
	}
	if !d.FlushOne(0) {
		t.Error("install still blocked after certification")
	}
}

func TestCertifyLeavesTornTxnUncertified(t *testing.T) {
	pages := workload.Pages(8)
	d := New(func(s *model.State) method.DB { return method.NewPhysiological(s) }, 2, workload.InitialState(pages))
	a, b := twoShardPages(t, d.Router(), pages)

	if err := d.Exec(model.ReadWrite(1, "xfer", []model.Var{a, b}, []model.Var{a, b})); err != nil {
		t.Fatal(err)
	}
	d.FlushLog(0) // shard 1's copy stays volatile: the txn is torn
	cut, err := d.Certify()
	if err != nil {
		t.Fatal(err)
	}
	if len(cut.Dropped) != 1 {
		t.Fatalf("dropped = %+v, want the torn txn", cut.Dropped)
	}
	if d.FlushOne(0) {
		t.Error("install went through under a torn cross-shard record")
	}
}

func TestCrossHistoryShapes(t *testing.T) {
	router := newRouter(2)
	pages := workload.Pages(12)
	for _, m := range eligibleMethods {
		ops, err := CrossHistory(m.name, 40, pages, router, 4, 7)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if len(ops) != 40 {
			t.Fatalf("%s: %d ops", m.name, len(ops))
		}
		cross := 0
		for i, op := range ops {
			if op.ID() != model.OpID(i+1) {
				t.Fatalf("%s: op %d has id %d", m.name, i, op.ID())
			}
			shards := make(map[int]bool)
			for _, x := range op.Reads() {
				shards[router.Shard(x)] = true
			}
			for _, x := range op.Writes() {
				shards[router.Shard(x)] = true
			}
			if len(shards) > 1 {
				cross++
			}
		}
		if cross == 0 {
			t.Errorf("%s: history has no cross-shard transactions", m.name)
		}
	}
	if _, err := CrossHistory("physical", 10, pages, router, 4, 7); err == nil {
		t.Error("CrossHistory accepted the physical method")
	}
}
