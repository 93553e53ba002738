// Package shard splits a database into N shards, each owning its own
// WAL, checkpoint, and cache, and makes redo recovery distributed: each
// shard recovers its own log prefix with the existing single-log
// engines, in parallel across shards, from a common certified cut.
//
// The paper's explainability theory is stated for a single log, but its
// invariants project onto shards: variables are shard-owned, so every
// conflict-graph edge is intra-shard and a global state is explainable
// iff each shard's projection is explainable under a common cut across
// the logs (DESIGN.md §15). What ties the logs together is cross-shard
// transactions: one system operation whose records land in multiple
// logs. Each participant record carries the shared transaction id and
// the full per-log sequence vector, so any surviving record reveals
// partner records a crash may have lost. The certified cut (cut.go) is
// the maximal vector of per-shard log prefixes in which every
// cross-shard transaction is wholly inside or wholly outside.
//
// Soundness hinges on the certification gate: a shard may install pages
// or checkpoint only while every cross-shard record in its log lies
// within the last certified cut. Certified transactions are fully
// durable on all participants and can never fall out of a future cut
// (the cut is monotone in the stable frontiers), so everything a shard
// ever installs sits inside the crash-time cut and per-shard recovery
// from the cut prefix replays over an explainable stable state.
package shard

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"redotheory/internal/core"
	"redotheory/internal/method"
	"redotheory/internal/model"
	"redotheory/internal/obs"
)

// Factory builds a fresh method DB over an initial state; the
// coordinator instantiates one per shard over that shard's projection
// of the initial state. It matches sim.Factory.
type Factory func(*model.State) method.DB

// Eligible reports whether the named recovery method can run under the
// sharding coordinator. The coordinator needs exactly one log record
// per executed (projected) operation to carry the transaction vector;
// physical logging splits one operation into per-page blind records
// with fresh ids, so its log has no such record.
func Eligible(name string) bool {
	return !strings.HasPrefix(name, "physical")
}

// projBase is where coordinator-assigned projection operation ids
// start. History ids live far below it, so projections never collide
// with system operations in any per-shard or merged view.
const projBase model.OpID = 1 << 40

// Label keys for cross-shard transaction metadata on log records. The
// WAL checksums LSN and operation identity, not labels, so attaching
// them after the participant records are appended is safe.
const (
	// LabelTxn is the shared transaction id (the system operation's id).
	LabelTxn = "txn"
	// LabelVec is the per-log sequence vector: "shard:lsn" pairs for
	// every writer participant, comma-separated, ascending by shard.
	LabelVec = "txnvec"
	// LabelDep carries causal floors for read-only participants:
	// "shard:lsn" pairs meaning the cut must include that shard's log
	// through lsn for the baked remote reads to be explainable.
	LabelDep = "txndep"
)

// ErrShardDown reports that a transaction's participant shard has
// failed. The coordinator refuses the transaction atomically — nothing
// was logged on any shard.
var ErrShardDown = errors.New("shard: participant shard is down")

// Router deterministically assigns variables to shards (FNV-1a mod N).
type Router struct{ n int }

// newRouter returns a router over n shards.
func newRouter(n int) *Router {
	if n < 1 {
		panic(fmt.Sprintf("shard: router over %d shards", n))
	}
	return &Router{n: n}
}

// N returns the shard count.
func (r *Router) N() int { return r.n }

// Shard returns the shard owning variable x. The hash is 32-bit FNV-1a
// (hash/fnv's New32a), inlined over the string: Exec routes every
// variable of every operation.
func (r *Router) Shard(x model.Var) int {
	h := uint32(2166136261)
	for i := 0; i < len(x); i++ {
		h ^= uint32(x[i])
		h *= 16777619
	}
	return int(h % uint32(r.n))
}

// Split projects a state onto the router's shards: shard i's state
// holds exactly the variables it owns.
func (r *Router) Split(s *model.State) []*model.State {
	out := make([]*model.State, r.n)
	for i := range out {
		out[i] = model.NewState()
	}
	for _, x := range s.Vars() {
		out[r.Shard(x)].Set(x, s.Get(x))
	}
	return out
}

// DB is a sharded database: N independent method DBs plus the
// cross-shard coordinator (transaction projection, sequence vectors,
// cut certification).
type DB struct {
	router *Router
	shards []method.DB
	rec    *obs.Recorder

	frozen []bool
	// crossMax[i] is the highest LSN on shard i carrying cross-shard
	// metadata; the certification gate compares it to certified[i].
	crossMax []core.LSN
	// certified[i] is the last certified cut, monotone in Certify calls.
	certified []core.LSN
	// uncertified is the coordinator's memory of the cross-shard
	// transactions not yet wholly inside certified, ascending by id: Exec
	// adds one, Certify retires the ones it certifies. It is what lets
	// Certify cost O(uncertified) instead of a rescan of every stable log
	// (DESIGN.md §15, "Why the delta is exact"). Crash loses it (crashed
	// is set), and from then on the cut is reconstructed from the logs.
	uncertified []Txn
	crashed     bool
	nextProj    model.OpID
	crossTxns   int
}

// New builds an n-shard database, splitting the initial state by the
// router and giving every shard its own substrate (store, WAL, cache)
// via the factory.
func New(mk Factory, n int, initial *model.State) *DB {
	router := newRouter(n)
	parts := router.Split(initial)
	d := &DB{
		router:    router,
		shards:    make([]method.DB, n),
		frozen:    make([]bool, n),
		crossMax:  make([]core.LSN, n),
		certified: make([]core.LSN, n),
		nextProj:  projBase,
	}
	for i := range d.shards {
		d.shards[i] = mk(parts[i])
	}
	return d
}

// Name identifies the configuration, e.g. "physiological×4".
func (d *DB) Name() string {
	return fmt.Sprintf("%s×%d", d.shards[0].Name(), d.router.n)
}

// Router returns the variable-to-shard assignment.
func (d *DB) Router() *Router { return d.router }

// N returns the shard count.
func (d *DB) N() int { return d.router.n }

// Shard exposes shard i's method DB (recovery surface, stats, repair).
func (d *DB) Shard(i int) method.DB { return d.shards[i] }

// SetRecorder attaches a telemetry recorder to the coordinator (gate
// and cut counters). Shard substrates keep their own recorders.
func (d *DB) SetRecorder(rec *obs.Recorder) { d.rec = rec }

// Recorder returns the attached recorder (nil when none).
func (d *DB) Recorder() *obs.Recorder { return d.rec }

// CrossTxns counts the cross-shard transactions executed.
func (d *DB) CrossTxns() int { return d.crossTxns }

// Read returns the current volatile value of a variable from its
// owning shard.
func (d *DB) Read(x model.Var) model.Value {
	return d.shards[d.router.Shard(x)].Read(x)
}

// participants returns the sorted shard indexes an operation touches
// (reads or writes).
func (d *DB) participants(op *model.Op) []int {
	// An operation touches a handful of shards: a sorted slice with
	// linear insertion beats a set plus a sort.
	out := make([]int, 0, 2)
	for _, vars := range [2][]model.Var{op.Reads(), op.Writes()} {
		for _, x := range vars {
			i := d.router.Shard(x)
			k := 0
			for k < len(out) && out[k] < i {
				k++
			}
			if k == len(out) || out[k] != i {
				out = slices.Insert(out, k, i)
			}
		}
	}
	return out
}

// Exec runs one system operation. An operation confined to one shard
// goes straight to that shard's method. An operation spanning shards
// becomes a cross-shard transaction: the coordinator captures the
// global read set from the live caches, executes a deterministic
// projection (model.Project) on every shard with local writes, and then
// stamps all participant records with the shared transaction id, the
// per-log sequence vector, and causal floors for read-only
// participants. Exec refuses (ErrShardDown) if any participant shard
// has failed; refusal is atomic — nothing is logged anywhere.
//
// A projection that fails after an earlier participant's already
// executed is not atomic: the earlier records stay in their logs without
// transaction labels, so the cut treats them as single-shard work, and
// the coordinator records no transaction for them (crossMax, the
// uncertified table and CrossTxns are untouched). CrossHistory's shapes
// never reach this — every projection is legal for the method — so it
// marks a workload bug, and the error says which projection broke.
func (d *DB) Exec(op *model.Op) error {
	parts := d.participants(op)
	for _, i := range parts {
		if d.frozen[i] {
			return fmt.Errorf("%w (shard %d, op %s)", ErrShardDown, i, op)
		}
	}
	if len(parts) == 1 {
		return d.shards[parts[0]].Exec(op)
	}

	// Capture the global read set before anything executes: model
	// operations read atomically, so every projection (and every baked
	// remote value) must observe the pre-transaction state.
	reads := make(model.ReadSet, len(op.Reads()))
	readsBy := make(map[int][]model.Var)
	for _, x := range op.Reads() {
		i := d.router.Shard(x)
		reads[x] = d.shards[i].Read(x)
		readsBy[i] = append(readsBy[i], x)
	}
	writesBy := make(map[int][]model.Var)
	for _, x := range op.Writes() {
		i := d.router.Shard(x)
		writesBy[i] = append(writesBy[i], x)
	}

	// Execute one projection per writer shard, in shard order.
	vec := make(map[int]core.LSN, len(writesBy))
	var recs []*core.Record
	for _, i := range parts {
		localWrites, ok := writesBy[i]
		if !ok {
			continue
		}
		proj := model.Project(d.nextProj, op, readsBy[i], localWrites, reads)
		d.nextProj++
		if err := d.shards[i].Exec(proj); err != nil {
			return fmt.Errorf("shard %d: projection of %s: %w", i, op, err)
		}
		r := d.shards[i].WAL().Log().RecordOf(proj.ID())
		if r == nil {
			return fmt.Errorf("shard %d: projection %s of %s left no log record; method %q is not shard-eligible",
				i, proj, op, d.shards[i].Name())
		}
		vec[i] = r.LSN
		recs = append(recs, r)
	}
	if len(recs) == 0 {
		return fmt.Errorf("shard: %s has no writer shard", op)
	}

	// Read-only participants contribute no record; their causal floor is
	// the volatile frontier observed at read time. If a crash loses that
	// prefix the baked values are unexplainable, so the cut must then
	// drop the transaction.
	var deps map[int]core.LSN // nil when empty, as decodeVec reads it back
	for _, i := range parts {
		if _, isWriter := vec[i]; isWriter {
			continue
		}
		if floor := d.shards[i].WAL().NextLSN() - 1; floor > 0 {
			if deps == nil {
				deps = make(map[int]core.LSN)
			}
			deps[i] = floor
		}
	}

	txn := strconv.FormatUint(uint64(op.ID()), 10)
	vecLabel := encodeVec(vec)
	depLabel := encodeVec(deps)
	for _, r := range recs {
		r.Labels[LabelTxn] = txn
		r.Labels[LabelVec] = vecLabel
		if depLabel != "" {
			r.Labels[LabelDep] = depLabel
		}
	}
	for i, lsn := range vec {
		if lsn > d.crossMax[i] {
			d.crossMax[i] = lsn
		}
	}
	d.addUncertified(Txn{ID: op.ID(), Vec: vec, Deps: deps})
	d.crossTxns++
	d.rec.Inc(obs.MShardCrossTxns)
	return nil
}

// addUncertified files a freshly stamped transaction in the uncertified
// table, keeping it ascending by id (histories issue ascending ids, so
// this is an append).
func (d *DB) addUncertified(t Txn) {
	k := len(d.uncertified)
	for k > 0 && d.uncertified[k-1].ID > t.ID {
		k--
	}
	d.uncertified = slices.Insert(d.uncertified, k, t)
}

// Certify recomputes the certified cut against the shards' current
// stable frontiers and advances the monotone per-shard certification
// bounds. The certification gate then lets each shard install and
// checkpoint up to (and only up to) cross-shard work inside this cut. A
// transaction certified once can never fall out of a later cut: records
// appended after certification carry larger LSNs than every frontier the
// cut was computed from, so the certified cut stays consistent as the
// logs and frontiers grow.
//
// That is also why Certify need not reread the logs: the maximal cut
// over the uncertified transactions alone is the maximal cut over all of
// them (DESIGN.md §15), so the coordinator's table is the whole input
// and every transaction the new cut certifies leaves it. After Crash the
// table is gone and Certify assembles its input the way Recover does,
// from the stable logs.
func (d *DB) Certify() (*Cut, error) {
	in, err := d.certifyInput()
	if err != nil {
		return nil, err
	}
	cut, err := ComputeCut(in)
	if err != nil {
		return nil, err
	}
	for i, lsn := range cut.Frontier {
		if lsn > d.certified[i] {
			d.certified[i] = lsn
		}
	}
	d.uncertified = slices.DeleteFunc(d.uncertified, func(t Txn) bool {
		return txnInside(&t, d.certified)
	})
	d.rec.Inc(obs.MShardCertify)
	return cut, nil
}

// certifyInput assembles Certify's cut input from coordinator memory:
// the live bounds plus the uncertified transactions the stable logs can
// see — those with a record at or below its shard's stable frontier
// (uncertified records are never truncated, so that is exactly
// StableTxns' visibility). Without coordinator memory it is cutInput.
func (d *DB) certifyInput() (CutInput, error) {
	if d.crashed {
		return d.cutInput()
	}
	in := d.stableBounds()
	for ti := range d.uncertified {
		if t := &d.uncertified[ti]; t.stableUnder(in.Frontiers) {
			in.Txns = append(in.Txns, *t)
		}
	}
	return in, nil
}

// gateOpen reports whether shard i may install or checkpoint: every
// cross-shard record in its log must lie within the certified cut.
func (d *DB) gateOpen(i int) bool {
	if d.crossMax[i] <= d.certified[i] {
		return true
	}
	d.rec.Inc(obs.MShardGateBlocked)
	return false
}

// FlushOne lets shard i's background writer install one eligible page,
// subject to the certification gate; it reports whether it made
// progress.
func (d *DB) FlushOne(i int) bool {
	if d.frozen[i] || !d.gateOpen(i) {
		return false
	}
	return d.shards[i].FlushOne()
}

// FlushLog forces shard i's log. Forcing needs no gate: durability
// never invalidates a cut, it only lets certification advance.
func (d *DB) FlushLog(i int) {
	if !d.frozen[i] {
		d.shards[i].FlushLog()
	}
}

// Checkpoint runs shard i's checkpoint, subject to the certification
// gate (a checkpoint installs work — for logical recovery, all of it).
func (d *DB) Checkpoint(i int) error {
	if d.frozen[i] || !d.gateOpen(i) {
		return nil
	}
	return d.shards[i].Checkpoint()
}

// Truncate drops shard i's checkpoint-covered stable log prefix,
// folding it into the shard's recovery base. Truncated records were
// installed by a gated checkpoint, hence certified; the cut can never
// retreat into a truncated prefix.
func (d *DB) Truncate(i int) (int, error) {
	if d.frozen[i] {
		return 0, nil
	}
	t, ok := d.shards[i].(method.Truncator)
	if !ok {
		return 0, nil
	}
	return t.TruncateCheckpointed()
}

// Freeze marks shard i failed: it stops executing, installing, and
// forcing, so its durable frontier stays where the failure left it.
// Cross-shard transactions touching it are refused from now on, and
// certification naturally stalls for transactions involving it.
func (d *DB) Freeze(i int) { d.frozen[i] = true }

// Crash fails every shard and the coordinator: caches, unflushed log
// tails and the uncertified-transaction table are lost, only stable
// states and stable log prefixes survive.
func (d *DB) Crash() {
	for _, db := range d.shards {
		db.Crash()
	}
	d.uncertified = nil
	d.crashed = true
}

// Stats sums the per-shard method stats.
func (d *DB) Stats() method.Stats {
	var out method.Stats
	for _, db := range d.shards {
		st := db.Stats()
		out.OpsExecuted += st.OpsExecuted
		out.LogRecords += st.LogRecords
		out.LogBytes += st.LogBytes
		out.PageFlushes += st.PageFlushes
		out.LogForces += st.LogForces
		out.Checkpoints += st.Checkpoints
		out.StablePages += st.StablePages
	}
	return out
}

// cutInput assembles the certified-cut inputs from the shards' stable
// logs: frontiers, low-water marks (records below are folded into the
// recovery base by truncation, i.e. installed), and the cross-shard
// transaction table.
func (d *DB) cutInput() (CutInput, error) {
	in := d.stableBounds()
	txns, err := d.StableTxns()
	if err != nil {
		return CutInput{}, err
	}
	in.Txns = txns
	return in, nil
}

// stableBounds reads each shard's stable frontier and low-water mark: a
// cut input without its transaction table.
func (d *DB) stableBounds() CutInput {
	n := d.router.n
	in := CutInput{
		Frontiers: make([]core.LSN, n),
		LowWater:  make([]core.LSN, n),
	}
	for i, db := range d.shards {
		in.Frontiers[i] = db.WAL().StableLSN()
		slog := db.StableLog()
		if recs := slog.Records(); len(recs) > 0 {
			in.LowWater[i] = recs[0].LSN
		} else {
			in.LowWater[i] = slog.NextLSN()
		}
	}
	return in
}

// StableTxns reconstructs the cross-shard transaction table from the
// shards' stable logs. Every participant record carries the full
// vector, so a transaction some of whose records a crash lost is still
// visible — and detectable as torn — through any surviving record.
func (d *DB) StableTxns() ([]Txn, error) {
	byID := make(map[model.OpID]*Txn)
	var order []model.OpID
	for i, db := range d.shards {
		for _, r := range db.StableLog().Records() {
			idLabel, ok := r.Labels[LabelTxn]
			if !ok {
				continue
			}
			id64, err := strconv.ParseUint(idLabel, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("shard %d: record %d: bad %s label %q", i, r.LSN, LabelTxn, idLabel)
			}
			id := model.OpID(id64)
			vec, err := decodeVec(r.Labels[LabelVec])
			if err != nil {
				return nil, fmt.Errorf("shard %d: record %d: %w", i, r.LSN, err)
			}
			deps, err := decodeVec(r.Labels[LabelDep])
			if err != nil {
				return nil, fmt.Errorf("shard %d: record %d: %w", i, r.LSN, err)
			}
			if got := vec[i]; got != r.LSN {
				return nil, fmt.Errorf("shard %d: record %d: vector places it at LSN %d", i, r.LSN, got)
			}
			if t, seen := byID[id]; seen {
				if !vecEqual(t.Vec, vec) || !vecEqual(t.Deps, deps) {
					return nil, fmt.Errorf("shard %d: transaction %d: inconsistent vectors across participant records", i, id)
				}
				continue
			}
			byID[id] = &Txn{ID: id, Vec: vec, Deps: deps}
			order = append(order, id)
		}
	}
	sort.Slice(order, func(a, b int) bool { return order[a] < order[b] })
	out := make([]Txn, 0, len(order))
	for _, id := range order {
		out = append(out, *byID[id])
	}
	return out, nil
}

// encodeVec renders a shard→LSN map as "shard:lsn" pairs, ascending by
// shard ("" for an empty map).
func encodeVec(v map[int]core.LSN) string {
	if len(v) == 0 {
		return ""
	}
	shards := make([]int, 0, len(v))
	for i := range v {
		shards = append(shards, i)
	}
	sort.Ints(shards)
	var b strings.Builder
	for k, i := range shards {
		if k > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d:%d", i, v[i])
	}
	return b.String()
}

// decodeVec parses encodeVec's output (nil for "").
func decodeVec(s string) (map[int]core.LSN, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[int]core.LSN)
	for _, pair := range strings.Split(s, ",") {
		shard, lsn, ok := strings.Cut(pair, ":")
		if !ok {
			return nil, fmt.Errorf("shard: bad vector entry %q", pair)
		}
		i, err := strconv.Atoi(shard)
		if err != nil {
			return nil, fmt.Errorf("shard: bad vector shard %q", pair)
		}
		l, err := strconv.ParseUint(lsn, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("shard: bad vector LSN %q", pair)
		}
		out[i] = core.LSN(l)
	}
	return out, nil
}

func vecEqual(a, b map[int]core.LSN) bool {
	if len(a) != len(b) {
		return false
	}
	for i, l := range a {
		if b[i] != l {
			return false
		}
	}
	return true
}
