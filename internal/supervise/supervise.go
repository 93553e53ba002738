// Package supervise runs recovery as a supervised process: bounded
// attempts that survive nested crashes and transient storage faults,
// with exponential backoff between attempts, recovery-progress
// checkpoints so each restart skips already-installed work, and a
// degradation ladder that steps from partitioned parallel recovery down
// to sequential and finally to media-fault-tolerant degraded recovery.
//
// The availability reading of Corollary 4 is the whole design: every
// intermediate state of an installing recovery is itself recoverable,
// because the operations that will not be redone always form a prefix
// of the installation graph explaining the current stable state. The
// supervisor leans on that three ways:
//
//   - Restart, don't resume. A crashed attempt needs no cleanup — the
//     next attempt simply runs the recovery procedure over the new
//     (further-installed) stable state.
//
//   - Checkpoint the progress. After every K installed operations the
//     installing pass appends a fuzzy checkpoint whose bound is one
//     past the last processed record (method.ProgressCheckpointer), so
//     a restart skips the settled prefix without re-examining it. The
//     claim is sound because installs happen in log order: every record
//     below the bound is checkpoint-covered, redo-test-rejected
//     (installed), or just installed.
//
//   - Audit every crash point. After each failed attempt the supervisor
//     re-checks the Recovery Invariant with the core checker: the
//     skipped prefix must still explain the stable state. An audit
//     failure is treated as evidence of media damage and escalates
//     straight to the degraded rung rather than failing the run.
//
// Progress is monotone by construction — page LSNs and checkpoint
// bounds only advance — and the supervisor enforces it: the installed
// count (stable log minus the predicted redo set) is measured after
// every attempt and a regression is a hard error, not a retry.
package supervise

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"redotheory/internal/core"
	"redotheory/internal/method"
	"redotheory/internal/model"
	"redotheory/internal/obs"
	"redotheory/internal/storage"
	"redotheory/internal/wal"
)

// Rung names a degradation-ladder rung, in escalation order.
type Rung string

const (
	// RungParallel: partitioned parallel recovery computes the outcome
	// and cross-checks the installing pass against it.
	RungParallel Rung = "parallel"
	// RungSequential: the plain in-order installing pass (Figure 6 with
	// persistence), no concurrent machinery.
	RungSequential Rung = "sequential"
	// RungDegraded: media-fault-tolerant recovery — substrate
	// validation, quarantine, conservative full replay.
	RungDegraded Rung = "degraded"
)

// next returns the rung below, saturating at degraded.
func (r Rung) next() Rung {
	switch r {
	case RungParallel:
		return RungSequential
	default:
		return RungDegraded
	}
}

// CrashPlan schedules injected nested crashes, one per attempt:
// Points[k] is how many operations attempt k may install before the
// supervisor simulates a crash (0 crashes before the first install; a
// negative point, or an attempt beyond the schedule, runs clean). An
// attempt that finishes before reaching its point never crashes.
type CrashPlan struct {
	Points []int
}

// point returns the attempt's crash point (-1: no crash planned).
func (p CrashPlan) point(attempt int) int {
	if attempt < len(p.Points) {
		return p.Points[attempt]
	}
	return -1
}

// Options tunes the supervisor. The zero value is usable: defaults are
// filled in by Supervise.
type Options struct {
	// MaxAttempts bounds the attempt loop (default 16).
	MaxAttempts int
	// ProgressEvery is K: a fuzzy progress checkpoint is appended after
	// every K installed operations (default 4; negative disables).
	ProgressEvery int
	// BackoffBase and BackoffMax shape the exponential backoff between
	// attempts: min(Base·2^(attempt-1), Max), scaled by deterministic
	// jitter in [0.5, 1) drawn from Seed (defaults 1ms and 50ms).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed drives the backoff jitter and the transient-fault stream.
	Seed int64
	// PhaseDeadline bounds each attempt's wall clock as measured by
	// Clock; an attempt that exceeds it is failed and retried (0: none).
	PhaseDeadline time.Duration
	// EscalateAfter is how many consecutive failed attempts on a rung
	// trigger escalation to the next rung (default 2). Media-fault
	// evidence escalates straight to degraded regardless.
	EscalateAfter int
	// Workers is the parallel rung's pool size (default 3).
	Workers int
	// StartRung is the ladder rung to start on ("" means RungParallel).
	// Tests and campaigns start lower to exercise one rung in isolation.
	StartRung Rung
	// Crashes schedules injected nested crashes.
	Crashes CrashPlan
	// TransientFaultRate is the per-install probability that the install
	// I/O fails; the attempt is aborted and retried (the fault stream is
	// deterministic in Seed, so a retry draws fresh outcomes).
	TransientFaultRate float64
	// SkipAudit disables the Corollary-4 invariant audit at crash
	// points (the audit is on by default).
	SkipAudit bool
	// Recorder receives attempt/backoff/ladder telemetry (nil disables).
	Recorder *obs.Recorder
	// Flight, when non-nil, is the crash-surviving event ring: the
	// supervisor preserves its tail into a labeled snapshot after every
	// failed attempt and dumps it into Result.Flight when the whole
	// supervised recovery fails. When the recorder (created if needed)
	// has no sink of its own, the flight recorder is attached as the
	// sink for the duration, so events flow into the ring without any
	// further wiring by the caller.
	Flight *obs.FlightRecorder
	// Sleep, when non-nil, replaces time.Sleep for backoff (tests and
	// campaigns pass a no-op to keep wall clock out of the grid).
	Sleep func(time.Duration)
	// Clock, when non-nil, replaces time.Now for deadline checks.
	Clock func() time.Time
}

func (o Options) withDefaults() Options {
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 16
	}
	if o.ProgressEvery == 0 {
		o.ProgressEvery = 4
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 50 * time.Millisecond
	}
	if o.EscalateAfter <= 0 {
		o.EscalateAfter = 2
	}
	if o.Workers <= 0 {
		o.Workers = 3
	}
	if o.Sleep == nil {
		o.Sleep = time.Sleep
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	return o
}

// Attempt reports one supervised attempt.
type Attempt struct {
	// Index is the attempt's ordinal (0-based).
	Index int
	// Rung is the ladder rung the attempt ran on.
	Rung Rung
	// Installed is how many operations the attempt installed.
	Installed int
	// Checkpoints is how many progress checkpoints it appended.
	Checkpoints int
	// Progress is the monotone measure after the attempt: stable-logged
	// operations the method's redo test now considers installed.
	Progress int
	// Crashed is true when the injected nested crash fired.
	Crashed bool
	// Err is the failure reason ("" on success).
	Err string
	// Backoff is the jittered delay slept before this attempt.
	Backoff time.Duration
	// AuditOK is the Corollary-4 audit verdict at this attempt's end
	// (true when the audit was skipped).
	AuditOK bool
}

// Result reports a whole supervised recovery.
type Result struct {
	// Method names the recovery method driven.
	Method string
	// Converged is true when an attempt completed and verified.
	Converged bool
	// Rung is the ladder rung that finished (or the rung of the last
	// attempt when not converged).
	Rung Rung
	// State is the recovered state (nil when not converged).
	State *model.State
	// Attempts lists every attempt in order.
	Attempts []Attempt
	// InstallCapable is whether the method's recovery persists work as
	// it goes (method.ProgressCheckpointer.InstallsDuringRecovery).
	InstallCapable bool
	// TotalInstalls sums installs across attempts.
	TotalInstalls int
	// ProgressCheckpoints sums progress checkpoints appended.
	ProgressCheckpoints int
	// CrashesInjected counts nested crashes that fired.
	CrashesInjected int
	// TransientFaults counts attempts aborted by an injected install
	// fault.
	TransientFaults int
	// Escalations counts ladder transitions.
	Escalations int
	// AuditFailures counts failed Corollary-4 audits (each escalates to
	// the degraded rung).
	AuditFailures int
	// BackoffTotal sums the jittered delays between attempts.
	BackoffTotal time.Duration
	// Degraded carries the degraded rung's full report when that rung
	// produced the final outcome.
	Degraded *method.DegradedResult
	// Unrecoverable is true when the degraded rung proved committed work
	// was lost; the supervisor stops immediately (no rung is lower).
	Unrecoverable bool
	// Flight is the flight-recorder dump captured on terminal failure
	// (Options.Flight set and the supervised recovery did not converge):
	// the preserved per-crash snapshots plus the final event ring.
	Flight *obs.FlightDump
}

// attempt-failure sentinels; Err strings in Attempt derive from these.
var (
	errNestedCrash = errors.New("supervise: injected nested crash")
	errTransient   = errors.New("supervise: transient install fault")
	errDeadline    = errors.New("supervise: phase deadline exceeded")
)

// ErrProgressRegression is returned when the monotone-progress measure
// moved backwards between attempts — a soundness bug, never a condition
// to retry through.
var ErrProgressRegression = errors.New("supervise: installed-prefix progress regressed between attempts")

// splitmix is the splitmix64 finalizer, used to derive the jitter and
// fault streams independently from one seed.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func derivedRng(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(splitmix(uint64(seed)^stream) &^ (1 << 63))))
}

// session is one supervised recovery in flight.
type session struct {
	db       method.DB
	o        Options
	rec      *obs.Recorder
	jitter   *rand.Rand
	faults   *rand.Rand
	res      *Result
	deadline time.Time // zero: no deadline for the current attempt
}

// Supervise drives the crashed DB's recovery to completion under the
// configured crash and fault schedule. It returns the result with
// Converged=false when attempts were exhausted or the degraded rung
// declared the damage unrecoverable; the error return is reserved for
// harness breakage and for monotone-progress regressions
// (ErrProgressRegression), which indicate a soundness bug.
func Supervise(db method.DB, opts Options) (*Result, error) {
	o := opts.withDefaults()
	rung := o.StartRung
	switch rung {
	case "":
		rung = RungParallel
	case RungParallel, RungSequential, RungDegraded:
	default:
		return nil, fmt.Errorf("supervise: unknown start rung %q", rung)
	}
	s := &session{
		db:     db,
		o:      o,
		rec:    o.Recorder,
		jitter: derivedRng(o.Seed, 0x6a09e667f3bcc908),
		faults: derivedRng(o.Seed, 0xbb67ae8584caa73b),
		res:    &Result{Method: db.Name(), Rung: rung},
	}
	if pc, ok := db.(method.ProgressCheckpointer); ok {
		s.res.InstallCapable = pc.InstallsDuringRecovery()
	}
	// Flight wiring: with a ring but no sink of its own, the recorder
	// (created if needed) streams into the ring for the duration. A
	// recorder that is already sinking — the fuzz oracle tees into the
	// ring itself — is left alone.
	if o.Flight != nil {
		if s.rec == nil {
			s.rec = obs.New()
		}
		if !s.rec.Sinking() {
			s.rec.SetSink(o.Flight)
			defer s.rec.SetSink(nil)
		}
	}
	// Root span: the whole supervised recovery is one trace; attempts
	// and the engine recoveries they run nest inside it.
	root := s.rec.StartRootSpan(obs.PhaseSupervise, "supervised "+db.Name())
	defer root.End()

	consecutive := 0
	lastProgress := -1
	for attempt := 0; attempt < o.MaxAttempts; attempt++ {
		backoff := s.backoff(attempt)
		s.rec.Inc(obs.MSupAttempts)

		a := Attempt{Index: attempt, Rung: rung, Backoff: backoff, AuditOK: true}
		as := s.rec.StartSpanInfo(obs.PhaseAttempt, obs.SpanInfo{Comp: fmt.Sprintf("attempt%d/%s", attempt, rung)})
		state, err := s.runAttempt(rung, attempt, &a)

		s.res.TotalInstalls += a.Installed
		s.res.ProgressCheckpoints += a.Checkpoints
		s.rec.Add(obs.MSupInstalls, int64(a.Installed))
		s.rec.Add(obs.MSupCheckpoints, int64(a.Checkpoints))
		if a.Crashed {
			s.res.CrashesInjected++
			s.rec.Inc(obs.MSupCrashes)
		}
		if errors.Is(err, errTransient) {
			s.res.TransientFaults++
			s.rec.Inc(obs.MSupTransient)
		}

		// The monotone measure: how much of the stable log the method's
		// redo test now considers installed. Non-installing methods keep
		// it pinned at zero (their recovery leaves the stable state
		// alone), which is trivially monotone. A measurement that itself
		// trips the method's invariants (grouplsn's redo test panics on a
		// partially-installed group) is media evidence, not a regression.
		progress := lastProgress
		measured := false
		mediaEvidence := false
		if s.res.InstallCapable {
			p, perr := installedCount(db)
			switch {
			case perr == nil:
				progress, measured = p, true
			case isMediaFault(perr):
				mediaEvidence = true
			default:
				as.End()
				s.dumpFlight()
				return s.res, fmt.Errorf("supervise: measuring progress after attempt %d: %w", attempt, perr)
			}
		} else {
			progress, measured = 0, true
		}
		a.Progress = progress
		if measured {
			s.rec.SetGauge(obs.GSupProgress, int64(progress))
			if lastProgress >= 0 && progress < lastProgress {
				a.Err = ErrProgressRegression.Error()
				s.res.Attempts = append(s.res.Attempts, a)
				as.End()
				s.dumpFlight()
				return s.res, fmt.Errorf("%w: %d after attempt %d, was %d", ErrProgressRegression, progress, attempt, lastProgress)
			}
			lastProgress = progress
		}

		if err == nil {
			a.Err = ""
			s.res.Attempts = append(s.res.Attempts, a)
			s.emitAttempt(a, "converged")
			as.End()
			s.res.Converged = true
			s.res.Rung = rung
			s.res.State = state
			s.rec.Inc(obs.MSupConverged)
			return s.res, nil
		}
		a.Err = err.Error()

		// Audit Corollary 4 at the crash point: the prefix recovery will
		// now skip must still explain the stable state. Only meaningful
		// for installing methods — a volatile attempt left no new state
		// behind — and deliberately tolerant: a failed audit is media
		// evidence, so it escalates rather than erroring.
		if !o.SkipAudit && s.res.InstallCapable {
			if ok, aerr := s.audit(); aerr != nil {
				as.End()
				s.dumpFlight()
				return s.res, fmt.Errorf("supervise: auditing after attempt %d: %w", attempt, aerr)
			} else if !ok {
				a.AuditOK = false
				s.res.AuditFailures++
			}
		}
		s.res.Attempts = append(s.res.Attempts, a)
		s.emitAttempt(a, "failed")
		as.End()
		// Freeze the events leading into this failure before the next
		// attempt's traffic overwrites the ring.
		if o.Flight != nil {
			o.Flight.Preserve(fmt.Sprintf("attempt %d on %s: %s", attempt, rung, a.Err))
		}

		if s.res.Unrecoverable {
			s.res.Rung = rung
			s.dumpFlight()
			return s.res, nil
		}

		// Escalation: media evidence jumps straight to the degraded
		// rung; repeated failures step one rung down.
		consecutive++
		target := rung
		if !a.AuditOK || mediaEvidence || isMediaFault(err) {
			target = RungDegraded
		} else if consecutive >= o.EscalateAfter {
			target = rung.next()
		}
		if target != rung {
			rung = target
			consecutive = 0
			s.res.Escalations++
			s.rec.Inc(obs.MSupEscalations)
			s.rec.Emit(obs.Event{Type: obs.EvRung, Detail: string(rung)})
		}
	}
	s.res.Rung = rung
	s.dumpFlight()
	return s.res, nil
}

// dumpFlight captures the terminal flight-recorder dump into the
// result (no-op without a flight ring).
func (s *session) dumpFlight() {
	if s.o.Flight != nil {
		s.res.Flight = s.o.Flight.Dump()
	}
}

// backoff sleeps the exponential jittered delay before attempt k (> 0)
// and returns it.
func (s *session) backoff(attempt int) time.Duration {
	if attempt == 0 {
		return 0
	}
	d := s.o.BackoffBase << (attempt - 1)
	if d > s.o.BackoffMax || d <= 0 {
		d = s.o.BackoffMax
	}
	d = time.Duration(float64(d) * (0.5 + 0.5*s.jitter.Float64()))
	s.rec.ObserveDuration(obs.MSupBackoff, d)
	s.res.BackoffTotal += d
	s.o.Sleep(d)
	return d
}

func (s *session) emitAttempt(a Attempt, outcome string) {
	if !s.rec.Sinking() {
		return
	}
	s.rec.Emit(obs.Event{Type: obs.EvAttempt,
		Detail: fmt.Sprintf("attempt %d on %s: %s (installed %d, progress %d)", a.Index, a.Rung, outcome, a.Installed, a.Progress)})
}

// runAttempt executes one attempt on the given rung. It returns the
// recovered state on success; any failure (injected crash, transient
// fault, deadline, engine error, recovered panic) returns an error. A
// panicking redo test — grouplsn's partially-installed-group invariant,
// tripped by pre-existing media damage — is converted into a media
// fault so the ladder lands on the degraded rung.
func (s *session) runAttempt(rung Rung, attempt int, a *Attempt) (state *model.State, err error) {
	start := s.o.Clock()
	s.deadline = time.Time{}
	if s.o.PhaseDeadline > 0 {
		s.deadline = start.Add(s.o.PhaseDeadline)
	}
	defer func() {
		if p := recover(); p != nil {
			state, err = nil, &mediaFaultError{reason: fmt.Sprintf("recovery panicked: %v", p)}
		}
	}()

	crashAfter := s.o.Crashes.point(attempt)

	if rung == RungDegraded {
		return s.runDegraded(crashAfter, a)
	}

	if !s.res.InstallCapable {
		// Volatile recovery: a nested crash simply discards the attempt.
		if crashAfter >= 0 {
			a.Crashed = true
			return nil, errNestedCrash
		}
		if rung == RungParallel {
			par, perr := method.RecoverParallel(s.db, method.ParallelOptions{Workers: s.o.Workers, Recorder: s.rec})
			if perr != nil {
				return nil, perr
			}
			if derr := s.checkDeadline(); derr != nil {
				return nil, derr
			}
			return par.State, nil
		}
		res, rerr := method.RecoverObserved(s.db, s.rec)
		if rerr != nil {
			return nil, rerr
		}
		if derr := s.checkDeadline(); derr != nil {
			return nil, derr
		}
		return res.State, nil
	}

	// Installing rungs. The parallel rung computes the outcome with the
	// partitioned engine first and cross-checks the installed result
	// against it — a divergence fails the attempt (and, repeated, walks
	// the ladder down to the simpler machinery).
	var target *model.State
	if rung == RungParallel {
		par, perr := method.RecoverParallel(s.db, method.ParallelOptions{Workers: s.o.Workers, Recorder: s.rec})
		if perr != nil {
			return nil, perr
		}
		target = par.State
		if derr := s.checkDeadline(); derr != nil {
			return nil, derr
		}
	}
	if ierr := s.runInstalling(crashAfter, a); ierr != nil {
		return nil, ierr
	}
	final := s.db.StableState()
	if target != nil && !final.Equal(target) {
		return nil, fmt.Errorf("supervise: installing pass diverged from the parallel engine's outcome")
	}
	return final, nil
}

// runDegraded runs the degraded rung, mapping the nested-crash point
// onto its abort-after-repairs knob.
func (s *session) runDegraded(crashAfter int, a *Attempt) (*model.State, error) {
	opts := method.RunToCompletion()
	if crashAfter >= 0 {
		opts = method.DegradedOptions{AbortAfterRepairs: crashAfter}
	}
	deg, err := method.RecoverDegraded(s.db, opts)
	if err != nil {
		return nil, err
	}
	s.res.Degraded = deg
	if deg.Unrecoverable {
		s.res.Unrecoverable = true
		return nil, fmt.Errorf("supervise: degraded recovery declared the damage unrecoverable")
	}
	if deg.Aborted {
		a.Crashed = true
		return nil, errNestedCrash
	}
	if derr := s.checkDeadline(); derr != nil {
		return nil, derr
	}
	return deg.State, nil
}

// runInstalling is the supervised installing pass: the instantiation of
// core.Scan whose step layers the supervisor's deadline, crash point and
// transient-fault stream in front of method.InstallRedo, and periodic
// progress checkpoints behind it. Like method's recoverInstalling it stops
// before the next redo, so the deadline is checked per admitted record
// and once more when the scan ends. Installs happen at whole-record
// granularity — a faulted install aborts before any of the record's
// pages are written, so multi-page atomic groups are never torn by the
// supervisor itself.
func (s *session) runInstalling(crashAfter int, a *Attempt) error {
	inst, ok := s.db.(method.Installer)
	if !ok {
		return fmt.Errorf("supervise: %s does not support installing recovery", s.db.Name())
	}
	pc, _ := s.db.(method.ProgressCheckpointer)
	state := s.db.StableState()

	// One span per fuzzy-checkpointed install batch: opened lazily at
	// the batch's first install, closed when its progress checkpoint is
	// appended (or, via the defer, when the attempt ends mid-batch — a
	// crash point leaves the batch span closed just before the failure
	// surfaces, so flight snapshots show which batch died).
	var bs *obs.Span
	batch := 0
	defer func() { bs.End() }()

	// interrupted is why the step stopped the scan, when it did.
	var interrupted error
	_, _, err := core.Scan(s.rec, state, s.db.StableLog(), s.db.Checkpointed(), s.db.RedoTest(), s.db.Analyze(), true,
		func(_ int, r *core.Record) (bool, error) {
			switch {
			case s.checkDeadline() != nil:
				interrupted = errDeadline
			case crashAfter >= 0 && a.Installed >= crashAfter:
				a.Crashed = true
				interrupted = errNestedCrash
			case s.o.TransientFaultRate > 0 && s.faults.Float64() < s.o.TransientFaultRate:
				interrupted = errTransient
			}
			if interrupted != nil {
				return true, nil
			}
			if bs == nil && s.rec.Sinking() {
				bs = s.rec.StartSpanInfo(obs.PhaseInstall, obs.SpanInfo{
					Comp: fmt.Sprintf("batch%d", batch), Size: s.o.ProgressEvery})
			}
			if err := method.InstallRedo(inst, state, r); err != nil {
				return false, err
			}
			a.Installed++
			if pc != nil && s.o.ProgressEvery > 0 && a.Installed%s.o.ProgressEvery == 0 {
				pc.AppendProgressCheckpoint(r.LSN + 1)
				a.Checkpoints++
				bs.End()
				bs, batch = nil, batch+1
			}
			return false, nil
		})
	switch {
	case err != nil:
		return err
	case interrupted != nil:
		return interrupted
	}
	return s.checkDeadline()
}

func (s *session) checkDeadline() error {
	if !s.deadline.IsZero() && s.o.Clock().After(s.deadline) {
		return errDeadline
	}
	return nil
}

// audit re-checks the Recovery Invariant over the current survivors:
// the checkpoint-skipped prefix must explain the stable state. A panic
// out of the method's redo machinery counts as a failed audit (it is
// evidence of damage the escalation path should see, not a crash).
func (s *session) audit() (ok bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			ok, err = false, nil
		}
	}()
	log := s.db.StableLog()
	checker, cerr := core.NewCheckerObserved(log, s.db.RecoveryBase(), s.rec)
	if cerr != nil {
		return false, cerr
	}
	rep := checker.Check(s.db.StableState(), log, s.db.Checkpointed(), s.db.RedoTest(), s.db.Analyze(), false)
	return rep.OK, nil
}

// installedCount is the monotone-progress measure: the stable-logged
// operations the method's redo machinery (checkpoint set plus redo
// test) now considers installed. It can only grow — page LSNs and
// checkpoint bounds advance, never retreat. A panicking redo test is
// surfaced as a media fault.
func installedCount(db method.DB) (n int, err error) {
	defer func() {
		if p := recover(); p != nil {
			n, err = 0, &mediaFaultError{reason: fmt.Sprintf("progress measurement panicked: %v", p)}
		}
	}()
	log := db.StableLog()
	redoSet, rerr := core.PredictRedoSet(db.StableState(), log, db.Checkpointed(), db.RedoTest(), db.Analyze())
	if rerr != nil {
		return 0, rerr
	}
	return log.Len() - len(redoSet), nil
}

// mediaFaultError marks attempt failures that should route straight to
// the degraded rung.
type mediaFaultError struct{ reason string }

func (e *mediaFaultError) Error() string { return "supervise: media fault: " + e.reason }

// isMediaFault reports whether the attempt error is evidence of media
// damage rather than a transient condition: a recovered recovery panic,
// a torn atomic group, or a corrupt log record.
func isMediaFault(err error) bool {
	var mf *mediaFaultError
	if errors.As(err, &mf) {
		return true
	}
	if storage.IsTorn(err) {
		return true
	}
	var corrupt *wal.CorruptRecordError
	return errors.As(err, &corrupt)
}
