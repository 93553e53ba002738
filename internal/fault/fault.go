// Package fault is the media-fault model: a deterministic, seeded
// injector for the ways stable storage lies after a crash, and the
// checksum primitive the storage and log layers use to catch it lying.
//
// The paper's Recovery Invariant (Section 4, Corollary 4) covers the
// clean-crash regime: volatile state is lost, stable state is intact.
// Real redo systems must additionally survive media faults — torn
// multi-page writes, page bit-rot, lost (stale) page writes, torn or
// rotted log tails, and crashes in the middle of recovery itself. This
// package supplies the fault vocabulary; internal/storage and
// internal/wal carry the injection hooks and the integrity metadata
// (per-page and per-record checksums plus a chained tail anchor) that
// turn every injected fault into a detection instead of silence; and
// internal/method's degraded recovery quarantines, truncates, and
// re-runs redo from the last trustworthy base.
//
// The package is intentionally leaf-level (no internal imports) so both
// substrate layers can depend on it without cycles.
package fault

import (
	"fmt"
	"math/rand"
)

// Kind names one media-fault class.
type Kind string

const (
	// None arms nothing; the zero Injector is inert.
	None Kind = ""
	// TornGroup tears a multi-page atomic write group, applying only a
	// prefix of its pages (a failed shadow-pointer swing or doublewrite).
	TornGroup Kind = "torn-group"
	// PageBitRot silently flips bytes of one stable page after the
	// crash, leaving its checksum stale.
	PageBitRot Kind = "page-bitrot"
	// LostWrite makes the disk silently drop every write to one page
	// (a dead sector): the store acknowledges the write, but at crash
	// time the page still holds its previous, checksum-valid contents.
	LostWrite Kind = "lost-write"
	// LogTornTail tears the stable log's tail: the last record(s) are
	// lost or left unreadable mid-record.
	LogTornTail Kind = "log-torn-tail"
	// LogBitRot corrupts one stable log record's payload, possibly far
	// from the tail, sacrificing the valid suffix behind it.
	LogBitRot Kind = "log-bitrot"
	// CrashInRecovery crashes the system again partway through degraded
	// recovery's repair phase; the rerun must converge.
	CrashInRecovery Kind = "crash-in-recovery"
)

// Kinds returns every injectable fault kind, in campaign order.
func Kinds() []Kind {
	return []Kind{TornGroup, PageBitRot, LostWrite, LogTornTail, LogBitRot, CrashInRecovery}
}

// Sum is the integrity checksum used for pages and log records: FNV-1a
// over the concatenated parts with length framing (so ("ab","c") and
// ("a","bc") differ).
func Sum(parts ...string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, p := range parts {
		h ^= uint64(len(p))
		h *= prime64
		for i := 0; i < len(p); i++ {
			h ^= uint64(p[i])
			h *= prime64
		}
	}
	return h
}

// Event records one fault that actually fired.
type Event struct {
	Kind   Kind
	Detail string
}

func (e Event) String() string { return fmt.Sprintf("%s: %s", e.Kind, e.Detail) }

// Detection records one integrity failure found by validation or
// degraded recovery — the proof that an injected fault did not pass
// silently. Code is a stable machine-readable tag ("corrupt-page",
// "corrupt-record", "torn-tail", "torn-group", "stale-page",
// "orphan-page", "partial-group").
type Detection struct {
	Code   string
	Detail string
}

func (d Detection) String() string { return fmt.Sprintf("[%s] %s", d.Code, d.Detail) }

// Plan describes the faults for one simulated run: a seed and a kind.
// Plans are deliberately tiny — campaigns sweep the product of kinds,
// crash points, and seeds, so one plan arms one fault.
type Plan struct {
	Seed int64
	Kind Kind
}

// New builds the plan's injector, with all victim choices driven by
// the plan's seed.
func (p Plan) New() *Injector {
	rng := rand.New(rand.NewSource(p.Seed))
	return &Injector{kind: p.Kind, rng: rng, loseAt: rng.Intn(6)}
}

// Injector carries one armed fault plan through a run. The substrate
// hooks (storage writes, group writes) consult it at decision points;
// crash-time decay (bit-rot, log tears) is driven by the campaign via
// Rng so every victim choice is seeded. A nil Injector is never
// consulted; callers hold it optionally.
type Injector struct {
	kind Kind
	rng  *rand.Rand
	// fired lists the faults that actually happened.
	fired []Event
	// write-time state for LostWrite: the k-th write after arming picks
	// the dead page; every later write to it is also lost.
	writeCount int
	loseAt     int
	deadPage   string
	// tornDone ensures TornGroup tears exactly one group.
	tornDone bool
}

// Kind returns the armed fault kind.
func (in *Injector) Kind() Kind { return in.kind }

// armed reports whether the given kind is armed (fired or not).
func (in *Injector) armed(k Kind) bool { return in != nil && in.kind == k && k != None }

// Rng exposes the injector's seeded source for victim selection by the
// crash-time realization code.
func (in *Injector) Rng() *rand.Rand { return in.rng }

// Fire records that a fault happened.
func (in *Injector) Fire(k Kind, detail string) {
	in.fired = append(in.fired, Event{Kind: k, Detail: detail})
}

// Fired returns the events recorded so far.
func (in *Injector) Fired() []Event { return in.fired }

// HasFired reports whether any fault has actually happened.
func (in *Injector) HasFired() bool { return in != nil && len(in.fired) > 0 }

// LoseWrite is the storage write hook: it reports whether the write to
// the given page should be silently lost at crash time. The first
// decision point at or past the seeded offset nominates the dead page;
// all subsequent writes to that page are lost too (dead-sector
// semantics), so the stale version is what the crash reveals no matter
// how often the page is rewritten.
func (in *Injector) LoseWrite(page string) bool {
	if !in.armed(LostWrite) {
		return false
	}
	if in.deadPage == "" {
		if in.writeCount < in.loseAt {
			in.writeCount++
			return false
		}
		in.deadPage = page
		in.Fire(LostWrite, fmt.Sprintf("writes to page %q silently lost", page))
	}
	return page == in.deadPage
}

// TearGroup is the group-write hook: for an armed TornGroup fault it
// returns how many pages of a size-n group to apply before tearing, and
// true. It fires at most once. Groups of one page cannot tear (single
// page writes are atomic by the disk model).
func (in *Injector) TearGroup(n int) (int, bool) {
	if !in.armed(TornGroup) || in.tornDone || n < 2 {
		return 0, false
	}
	in.tornDone = true
	keep := in.rng.Intn(n)
	in.Fire(TornGroup, fmt.Sprintf("write group of %d pages torn after %d", n, keep))
	return keep, true
}
