package sim

import (
	"fmt"
	"math/rand"

	"redotheory/internal/method"
	"redotheory/internal/model"
	"redotheory/internal/obs"
	"redotheory/internal/storage"
)

// Sched is a background-activity schedule: after every executed
// operation the crash loop draws, in this order, whether to flush one
// dirty page, force the log, and take a checkpoint, and after a
// successful checkpoint (only when TruncateProb > 0) whether to truncate
// the log. Probabilities are literal — zero means "never" — so the
// fuzzer's shrinker can say "no background activity at all" and the
// serve benchmarks can ask for an everything-logged-nothing-flushed
// fixture. DefaultSched is the crash matrix's mix. The JSON form is the
// fuzz repro artifact's "schedule" field.
type Sched struct {
	Seed           int64   `json:"seed"`
	FlushProb      float64 `json:"flush_prob"`
	ForceProb      float64 `json:"force_prob"`
	CheckpointProb float64 `json:"checkpoint_prob"`
	TruncateProb   float64 `json:"truncate_prob"`
	// ForceOnCrash forces the whole log to stable storage immediately
	// before the crash, so the crash loses no log tail — the maximal
	// redo backlog, which is what the instant-restart benchmarks want.
	ForceOnCrash bool `json:"force_on_crash,omitempty"`
}

// DefaultSched is the crash matrix's background mix under the given
// seed: flush 0.3, force 0.2, checkpoint 0.1, never truncate.
func DefaultSched(seed int64) Sched {
	return Sched{Seed: seed, FlushProb: 0.3, ForceProb: 0.2, CheckpointProb: 0.1}
}

// run is the crash loop every single-log history goes through: it
// executes ops[:crash] on db, drawing the schedule's background
// activity after each operation, and leaves db ready to crash. A torn
// checkpoint (an armed fault injector) aborts that checkpoint only. step,
// when non-nil, is called after operation i's background activity. run
// returns how many log records truncation dropped.
func (s Sched) run(db method.DB, ops []*model.Op, crash int, step func(i int) error) (int, error) {
	if crash < 0 || crash > len(ops) {
		return 0, fmt.Errorf("sim: crash point %d out of range [0,%d]", crash, len(ops))
	}
	rng := rand.New(rand.NewSource(s.Seed))
	truncated := 0
	for i, op := range ops[:crash] {
		if err := db.Exec(op); err != nil {
			return 0, fmt.Errorf("sim: %s: executing op %d: %w", db.Name(), i, err)
		}
		if rng.Float64() < s.FlushProb {
			db.FlushOne()
		}
		if rng.Float64() < s.ForceProb {
			db.FlushLog()
		}
		if rng.Float64() < s.CheckpointProb {
			if err := db.Checkpoint(); err != nil {
				if !storage.IsTorn(err) {
					return 0, fmt.Errorf("sim: %s: checkpoint: %w", db.Name(), err)
				}
				// A torn pointer swing aborts the checkpoint; the system
				// keeps running on the previous one. The half-written
				// group stays on disk for recovery to find.
			} else if s.TruncateProb > 0 && rng.Float64() < s.TruncateProb {
				if tr, ok := db.(method.Truncator); ok {
					n, err := tr.TruncateCheckpointed()
					if err != nil {
						return 0, fmt.Errorf("sim: %s: truncate: %w", db.Name(), err)
					}
					truncated += n
				}
			}
		}
		if step != nil {
			if err := step(i); err != nil {
				return 0, err
			}
		}
	}
	if s.ForceOnCrash {
		db.FlushLog()
	}
	return truncated, nil
}

// BuildCrashed executes the first crash operations of the history under
// the schedule and crashes the database, returning it ready for
// recovery (the survivors are valid per the method.DB recovery
// surface).
func BuildCrashed(mk Factory, initial *model.State, ops []*model.Op, crash int, s Sched, rec *obs.Recorder) (method.DB, error) {
	db := mk(initial)
	db.SetRecorder(rec)
	if _, err := s.run(db, ops, crash, nil); err != nil {
		return nil, err
	}
	db.Crash()
	return db, nil
}

// Determined returns the state a crashed database's stable log
// determines (Theorem 2): its recovery base — the initial state plus
// every truncated operation — with the stable log's operations applied
// in log order. Every correct recovery of the crash reproduces it.
func Determined(db method.DB) (*model.State, error) {
	s := db.RecoveryBase()
	for _, op := range db.StableLog().Ops() {
		if _, err := s.Apply(op); err != nil {
			return nil, fmt.Errorf("sim: oracle replay: %w", err)
		}
	}
	return s, nil
}
