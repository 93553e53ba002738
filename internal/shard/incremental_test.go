package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"redotheory/internal/core"
	"redotheory/internal/method"
	"redotheory/internal/model"
	"redotheory/internal/workload"
)

// coldCut is the differential reference for Certify: the cut Recover
// would compute right now, from the stable logs alone.
func coldCut(t *testing.T, d *DB) *Cut {
	t.Helper()
	in, err := d.cutInput()
	if err != nil {
		t.Fatalf("cold cut input: %v", err)
	}
	cut, err := ComputeCut(in)
	if err != nil {
		t.Fatalf("cold cut: %v", err)
	}
	return cut
}

// certifyChecked runs Certify and requires the cut it returns to equal
// the cold one field for field: Frontier, Dropped (ids, vectors and
// dependency floors, in order), Retreats and Clusters.
func certifyChecked(t *testing.T, d *DB, where string) *Cut {
	t.Helper()
	got, err := d.Certify()
	if err != nil {
		t.Fatalf("%s: certify: %v", where, err)
	}
	if want := coldCut(t, d); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: incremental cut %+v, cold cut %+v", where, got, want)
	}
	return got
}

// schedule is one background-work mix of the differential grid: the
// chance, after each executed operation, of each kind of work on a
// random shard (tried in this order, like sim.BuildShardedCrashed).
type schedule struct {
	name                                        string
	force, certify, flush, checkpoint, truncate float64
}

var schedules = []schedule{
	// sim.BuildShardedCrashed's mix.
	{"sim", 0.35, 0.3, 0.4, 0.2, 0.3},
	// Rare forces and certifications: long uncertified tails.
	{"lazy", 0.08, 0.1, 0.4, 0.2, 0.3},
	// Checkpoint and truncate eagerly: the low-water marks move.
	{"truncating", 0.3, 0.4, 0.3, 0.6, 0.9},
}

// freezePoints staggers the shard failures three ways: through the
// second half (sim's), early (transactions stay pinned by a frozen
// shard for most of the run), and never (every shard lives to the
// crash).
func freezePoints(mode int, rng *rand.Rand, nShards, nOps int) []int {
	out := make([]int, nShards)
	for i := range out {
		switch mode {
		case 0:
			out[i] = nOps/2 + rng.Intn(nOps/2+1)
		case 1:
			out[i] = nOps/8 + rng.Intn(nOps)
		default:
			out[i] = nOps
		}
	}
	return out
}

// gridStats records what the differential grid exercised, so that a
// grid that never truncates or never drops anything fails loudly
// instead of passing vacuously.
type gridStats struct {
	certifies, withUncertified, dropped, truncated, pinned int
}

// runDifferential drives one sharded run and checks every Certify
// against the cold cut; after the crash, Recover's cut must dominate
// every cut Certify returned.
func runDifferential(t *testing.T, name string, mk Factory, nShards, nOps int, seed int64, st *gridStats) {
	t.Helper()
	sched := schedules[int(seed)%len(schedules)]
	where := fmt.Sprintf("%s×%d/seed%d/%s", name, nShards, seed, sched.name)
	pages := workload.Pages(4 * nShards)
	d := New(mk, nShards, workload.InitialState(pages))
	ops, err := CrossHistory(name, nOps, pages, d.Router(), 3, seed)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed * 131))
	freeze := freezePoints(int(seed/int64(len(schedules)))%3, rng, nShards, nOps)

	high := make([]core.LSN, nShards) // pointwise max of every cut returned
	for k, op := range ops {
		for i := range freeze {
			if k == freeze[i] {
				d.Freeze(i)
			}
		}
		if err := d.Exec(op); err != nil {
			if errors.Is(err, ErrShardDown) {
				continue
			}
			t.Fatalf("%s: exec op %d: %v", where, k, err)
		}
		i := rng.Intn(nShards)
		switch {
		case rng.Float64() < sched.force:
			d.FlushLog(i)
		case rng.Float64() < sched.certify:
			if len(d.uncertified) > 0 {
				st.withUncertified++
			}
			cut := certifyChecked(t, d, fmt.Sprintf("%s after op %d", where, k))
			st.certifies++
			st.dropped += len(cut.Dropped)
			for s, lsn := range cut.Frontier {
				if lsn < high[s] {
					t.Fatalf("%s after op %d: cut retreated on shard %d: %d after %d", where, k, s, lsn, high[s])
				}
				high[s] = lsn
			}
			for ti := range d.uncertified {
				if txnInside(&d.uncertified[ti], d.certified) {
					t.Fatalf("%s after op %d: certified txn %d still tabled", where, k, d.uncertified[ti].ID)
				}
				for s := range d.uncertified[ti].Vec {
					if d.frozen[s] {
						st.pinned++
					}
				}
			}
		case rng.Float64() < sched.flush:
			d.FlushOne(i)
		case rng.Float64() < sched.checkpoint:
			if err := d.Checkpoint(i); err != nil {
				t.Fatalf("%s: checkpoint shard %d: %v", where, i, err)
			}
		case rng.Float64() < sched.truncate:
			n, err := d.Truncate(i)
			if err != nil {
				t.Fatalf("%s: truncate shard %d: %v", where, i, err)
			}
			st.truncated += n
		}
	}
	certifyChecked(t, d, where+" before the crash")
	d.Crash()

	out, err := d.Recover(RecoverOptions{})
	if err != nil {
		t.Fatalf("%s: recover: %v", where, err)
	}
	for s, lsn := range out.Cut.Frontier {
		if lsn < high[s] {
			t.Fatalf("%s: recovery cut %v below a certified cut %v on shard %d", where, out.Cut.Frontier, high, s)
		}
	}
	// With coordinator memory gone, Certify reads the logs as Recover does.
	if got := certifyChecked(t, d, where+" after the crash"); !reflect.DeepEqual(got, out.Cut) {
		t.Fatalf("%s: post-crash Certify %+v, Recover used %+v", where, got, out.Cut)
	}
}

// TestCertifyIncrementalMatchesCold is the differential property test
// for incremental certification: on every Certify of every run of the
// grid — eligible methods × shards {2,4} × three freeze staggerings ×
// three background mixes, 54 seeds × 400 operations — the cut computed
// from the coordinator's uncertified table equals the cut computed cold
// from the stable logs.
func TestCertifyIncrementalMatchesCold(t *testing.T) {
	seeds, nOps := int64(54), 400
	if testing.Short() {
		seeds = 9
	}
	var st gridStats
	for _, m := range eligibleMethods {
		for _, nShards := range []int{2, 4} {
			for seed := int64(1); seed <= seeds; seed++ {
				runDifferential(t, m.name, m.mk, nShards, nOps, seed, &st)
			}
		}
	}
	t.Logf("%d certifies (%d over a non-empty table), %d dropped-transaction sightings, %d pinned-by-frozen sightings, %d records truncated",
		st.certifies, st.withUncertified, st.dropped, st.pinned, st.truncated)
	if st.withUncertified == 0 || st.dropped == 0 || st.pinned == 0 || st.truncated == 0 {
		t.Errorf("grid too tame to mean anything: %+v", st)
	}
}

// stableView drops from a synthetic input the transactions with no
// record at or below a frontier: StableTxns never lists those.
func stableView(in CutInput) CutInput {
	out := CutInput{Frontiers: in.Frontiers, LowWater: in.LowWater}
	for ti := range in.Txns {
		if in.Txns[ti].stableUnder(in.Frontiers) {
			out.Txns = append(out.Txns, in.Txns[ti])
		}
	}
	return out
}

// uncertifiedView assembles, for a synthetic cold input, the input a
// live coordinator would hand ComputeCut: it certifies a cut at some
// earlier, lower frontier vector, retires the transactions inside it,
// and keeps the rest that have a stable record now.
func uncertifiedView(t *testing.T, in CutInput, rng *rand.Rand) CutInput {
	t.Helper()
	earlier := CutInput{Frontiers: make([]core.LSN, len(in.Frontiers)), LowWater: in.LowWater, Txns: in.Txns}
	for i, f := range in.Frontiers {
		earlier.Frontiers[i] = core.LSN(rng.Intn(int(f) + 1))
	}
	certified, err := ComputeCut(earlier)
	if err != nil {
		t.Fatalf("earlier cut: %v", err)
	}
	out := stableView(in)
	kept := out.Txns[:0]
	for ti := range out.Txns {
		if !txnInside(&out.Txns[ti], certified.Frontier) {
			kept = append(kept, out.Txns[ti])
		}
	}
	out.Txns = kept
	return out
}

// assembly is one way of putting a synthetic snapshot's cut input
// together, and the cold input its cut must agree with.
type assembly struct {
	way    string
	in     CutInput
	agrees CutInput
}

// bothWays assembles a synthetic snapshot cold (every transaction the
// generator made) and incrementally (uncertifiedView, which must agree
// with what StableTxns would list). The property tests compute the cut
// from each; consistency and maximality are judged against the snapshot
// itself.
func bothWays(t *testing.T, in CutInput, rng *rand.Rand) []assembly {
	return []assembly{
		{"cold", in, in},
		{"incremental", uncertifiedView(t, in, rng), stableView(in)},
	}
}

func twoShardDB(t *testing.T, mk Factory) (*DB, model.Var, model.Var) {
	t.Helper()
	pages := workload.Pages(8)
	d := New(mk, 2, workload.InitialState(pages))
	a, b := twoShardPages(t, d.Router(), pages)
	return d, a, b
}

func physiological(s *model.State) method.DB { return method.NewPhysiological(s) }

// TestCertifyTableEdgeCases pins the uncertified table's corner rows.
func TestCertifyTableEdgeCases(t *testing.T) {
	xfer := func(id model.OpID, a, b model.Var) *model.Op {
		return model.ReadWrite(id, "xfer", []model.Var{a, b}, []model.Var{a, b})
	}
	upd := func(id model.OpID, a model.Var) *model.Op {
		return model.ReadWrite(id, "upd", []model.Var{a}, []model.Var{a})
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, d *DB, a, b model.Var)
	}{
		{"a transaction with no stable record yet is absent from Dropped", func(t *testing.T, d *DB, a, b model.Var) {
			if err := d.Exec(xfer(1, a, b)); err != nil {
				t.Fatal(err)
			}
			cut := certifyChecked(t, d, "nothing forced")
			if len(cut.Dropped) != 0 || cut.Frontier[0] != 0 || cut.Frontier[1] != 0 {
				t.Errorf("cut %+v, want empty frontiers and nothing dropped", cut)
			}
			if len(d.uncertified) != 1 || d.gateOpen(0) || d.gateOpen(1) {
				t.Errorf("the volatile txn must stay tabled with both gates closed: table %+v", d.uncertified)
			}
		}},
		{"a transaction pinned by a frozen shard stays uncertified and keeps the gate closed", func(t *testing.T, d *DB, a, b model.Var) {
			if err := d.Exec(xfer(1, a, b)); err != nil {
				t.Fatal(err)
			}
			d.FlushLog(0)
			d.Freeze(1) // shard 1's copy is volatile and now stays so
			for round := 0; round < 3; round++ {
				if err := d.Exec(upd(model.OpID(10+round), a)); err != nil {
					t.Fatal(err)
				}
				d.FlushLog(0)
				cut := certifyChecked(t, d, "pinned")
				if len(cut.Dropped) != 1 || cut.Dropped[0].ID != 1 || cut.Frontier[0] != 0 {
					t.Fatalf("round %d: cut %+v, want txn 1 dropped and shard 0 held at 0", round, cut)
				}
				if len(d.uncertified) != 1 || d.uncertified[0].ID != 1 {
					t.Fatalf("round %d: table %+v, want txn 1", round, d.uncertified)
				}
				if d.gateOpen(0) || d.FlushOne(0) {
					t.Fatalf("round %d: shard 0 installed under a pinned cross-shard record", round)
				}
			}
		}},
		{"certified transactions leave the table, out of id order too", func(t *testing.T, d *DB, a, b model.Var) {
			for _, id := range []model.OpID{7, 3, 5} {
				if err := d.Exec(xfer(id, a, b)); err != nil {
					t.Fatal(err)
				}
			}
			if got := []model.OpID{d.uncertified[0].ID, d.uncertified[1].ID, d.uncertified[2].ID}; got[0] != 3 || got[1] != 5 || got[2] != 7 {
				t.Fatalf("table ids %v, want ascending", got)
			}
			d.FlushLog(0)
			d.Shard(1).WAL().FlushTo(2) // txns 7 and 3 whole, txn 5 torn
			cut := certifyChecked(t, d, "two of three durable")
			if len(cut.Dropped) != 1 || cut.Dropped[0].ID != 5 {
				t.Fatalf("dropped %+v, want txn 5", cut.Dropped)
			}
			if len(d.uncertified) != 1 || d.uncertified[0].ID != 5 {
				t.Fatalf("table %+v, want only txn 5", d.uncertified)
			}
			d.FlushLog(1)
			certifyChecked(t, d, "all durable")
			if len(d.uncertified) != 0 || !d.gateOpen(0) || !d.gateOpen(1) {
				t.Errorf("table %+v after full certification", d.uncertified)
			}
		}},
		{"a failed later projection tables nothing", func(t *testing.T, d *DB, a, b model.Var) {
			var b2 model.Var
			for _, p := range workload.Pages(8) {
				if d.Router().Shard(p) == 1 && p != b {
					b2 = p
				}
			}
			// Shard 0's projection is a legal single-page update; shard 1's
			// writes two pages, which physiological refuses.
			bad := model.ReadWrite(1, "wide", []model.Var{a, b, b2}, []model.Var{a, b, b2})
			if err := d.Exec(bad); err == nil {
				t.Fatal("two-page projection accepted by physiological")
			}
			recs := d.Shard(0).WAL().Log().Records()
			if len(recs) != 1 {
				t.Fatalf("shard 0 logged %d records, want the orphaned projection", len(recs))
			}
			if _, labelled := recs[0].Labels[LabelTxn]; labelled {
				t.Error("orphaned projection carries a transaction label")
			}
			if len(d.uncertified) != 0 || d.CrossTxns() != 0 || !d.gateOpen(0) {
				t.Errorf("failed transaction left coordinator state: table %+v, %d cross txns", d.uncertified, d.CrossTxns())
			}
			d.FlushLog(0)
			if cut := certifyChecked(t, d, "after the failed txn"); cut.Frontier[0] != 1 {
				t.Errorf("cut %v, want the orphan inside as single-shard work", cut.Frontier)
			}
		}},
		{"after a crash Certify reads the logs", func(t *testing.T, d *DB, a, b model.Var) {
			if err := d.Exec(xfer(1, a, b)); err != nil {
				t.Fatal(err)
			}
			d.FlushLog(0)
			d.Crash()
			cut := certifyChecked(t, d, "crashed")
			if len(cut.Dropped) != 1 || cut.Frontier[0] != 0 {
				t.Errorf("cut %+v, want the torn txn found in shard 0's log", cut)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, a, b := twoShardDB(t, physiological)
			tc.run(t, d, a, b)
		})
	}
}

// forcedHistory executes nOps operations of a 4-shard physiological
// CrossHistory, certifying as it goes like a live system, then forces
// every log and certifies: nothing is left uncertified.
func forcedHistory(tb testing.TB, nOps int) *DB {
	tb.Helper()
	pages := workload.Pages(4 * 32)
	d := New(physiological, 4, workload.InitialState(pages))
	ops, err := CrossHistory("physiological", nOps, pages, d.Router(), 5, 1)
	if err != nil {
		tb.Fatal(err)
	}
	for k, op := range ops {
		if err := d.Exec(op); err != nil {
			tb.Fatal(err)
		}
		if k%64 == 63 {
			for i := 0; i < d.N(); i++ {
				d.FlushLog(i)
			}
			if _, err := d.Certify(); err != nil {
				tb.Fatal(err)
			}
		}
	}
	for i := 0; i < d.N(); i++ {
		d.FlushLog(i)
	}
	if _, err := d.Certify(); err != nil {
		tb.Fatal(err)
	}
	if len(d.uncertified) != 0 {
		tb.Fatalf("%d transactions uncertified after forcing every log", len(d.uncertified))
	}
	return d
}

// TestCertifyCostIndependentOfLogLength is the scaling gate: with
// nothing uncertified a Certify allocates the same after 1k operations
// as after 8k. Rereading the stable logs (the cold path) allocates per
// labelled record, so it grows eightfold.
func TestCertifyCostIndependentOfLogLength(t *testing.T) {
	allocs := func(nOps int) float64 {
		d := forcedHistory(t, nOps)
		return testing.AllocsPerRun(20, func() {
			if _, err := d.Certify(); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(1000), allocs(8000)
	if short != long {
		t.Errorf("Certify allocates %.0f times after 1k ops and %.0f after 8k: it scales with the log", short, long)
	}
}

// BenchmarkCertify times one Certify over an 8k-operation log: with
// nothing uncertified, and with a tail of transactions a frozen shard
// pins in the table (ROADMAP: shard.certify_us_per_call ≤ 20).
func BenchmarkCertify(b *testing.B) {
	b.Run("clean", func(b *testing.B) {
		d := forcedHistory(b, 8000)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := d.Certify(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pinned-tail", func(b *testing.B) {
		d := forcedHistory(b, 8000)
		pages := workload.Pages(4 * 32)
		ops, err := CrossHistory("physiological", 200, pages, d.Router(), 2, 2)
		if err != nil {
			b.Fatal(err)
		}
		for _, op := range ops {
			if err := d.Exec(model.ReadWrite(op.ID()+8000, op.Name(), op.Reads(), op.Writes())); err != nil {
				b.Fatal(err)
			}
		}
		d.Freeze(3) // its unforced tail pins every transaction it wrote
		for i := 0; i < d.N(); i++ {
			d.FlushLog(i)
		}
		if _, err := d.Certify(); err != nil {
			b.Fatal(err)
		}
		if len(d.uncertified) == 0 {
			b.Fatal("no transaction pinned by the frozen shard")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := d.Certify(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
