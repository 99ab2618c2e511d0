package core

import (
	"errors"
	"fmt"
	"time"

	"lowdiff/internal/obs"
	"lowdiff/internal/tensor"
)

// RetryPolicy bounds how hard a persist operation fights a failing store:
// up to MaxRetries additional attempts with seeded, jittered exponential
// backoff (attempt k sleeps Backoff·2^(k-1), capped by MaxBackoff) and an
// optional total deadline across all attempts. Each attempt runs to its
// end, so nothing of it writes after Do returns. Every source of randomness and time is a seam
// (Seed, Sleep, Now), so retry schedules are deterministic in tests.
// The zero value retries 3 times with no backoff and no deadlines.
type RetryPolicy struct {
	// MaxRetries is the number of attempts after the first (default 3);
	// negative disables retrying entirely.
	MaxRetries int
	// Backoff is the base backoff: attempt k waits Backoff·2^(k-1) before
	// retrying (jittered when Jitter > 0). Zero disables sleeping.
	Backoff time.Duration
	// MaxBackoff caps a single backoff sleep (0: no cap).
	MaxBackoff time.Duration
	// Jitter randomizes each backoff multiplicatively: a sleep of d
	// becomes d·(1 − Jitter·u) with u ∈ [0,1) drawn from a SplitMix64
	// stream seeded by Seed. Zero disables jitter; values are clamped to
	// [0, 1]. The stream is re-seeded per Do call, so a given policy
	// reproduces the same schedule every time — deterministic in tests.
	Jitter float64
	// Seed seeds the jitter stream.
	Seed uint64
	// Deadline, when positive, is the total retry budget: once the time
	// since the first attempt reaches it, no further attempt is made and
	// the operation fails with ErrRetryExhausted (deadline flavor).
	Deadline time.Duration
	// Sleep is the backoff seam (nil uses time.Sleep).
	Sleep func(time.Duration)
	// Now is the clock seam for Deadline accounting (nil uses time.Now).
	Now func() time.Time
	// OnBackoff, when non-nil, observes every backoff sleep (the engine
	// wires it to the engine.retry.backoff counter).
	OnBackoff func(attempt int, d time.Duration)
}

// ErrRetryExhausted reports that a retried operation ran out of attempts
// (or retry deadline) without succeeding. Errors returned by
// RetryPolicy.Do match it via errors.Is while still matching the
// operation's final underlying error.
var ErrRetryExhausted = errors.New("core: retry attempts exhausted")

// RetryError is the failure Do returns after the policy gives up: how many
// attempts ran, whether the total deadline cut retrying short, and the
// final attempt's error.
type RetryError struct {
	Attempts   int
	DeadlineUp bool
	Err        error
}

func (e *RetryError) Error() string {
	if e.DeadlineUp {
		return fmt.Sprintf("retry deadline exhausted after %d attempts: %v", e.Attempts, e.Err)
	}
	return fmt.Sprintf("retries exhausted after %d attempts: %v", e.Attempts, e.Err)
}

// Unwrap matches both ErrRetryExhausted and the final attempt error.
func (e *RetryError) Unwrap() []error { return []error{ErrRetryExhausted, e.Err} }

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxRetries == 0 {
		p.MaxRetries = 3
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	if p.Now == nil {
		p.Now = time.Now
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.Jitter > 1 {
		p.Jitter = 1
	}
	return p
}

// backoffFor computes attempt k's backoff: exponential doubling from the
// base, capped, then jittered downward from the seeded stream.
func (p RetryPolicy) backoffFor(attempt int, rng *tensor.RNG) time.Duration {
	if p.Backoff <= 0 {
		return 0
	}
	d := p.Backoff
	for i := 1; i < attempt; i++ {
		d *= 2
		if p.MaxBackoff > 0 && d >= p.MaxBackoff {
			d = p.MaxBackoff
			break
		}
	}
	if p.MaxBackoff > 0 && d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	if p.Jitter > 0 {
		d = time.Duration(float64(d) * (1 - p.Jitter*rng.Float64()))
	}
	return d
}

// Do runs op, retrying per the policy. onRetry (may be nil) observes each
// retry before its backoff sleep. When every attempt fails (or the retry
// deadline expires) Do returns a *RetryError matching both
// ErrRetryExhausted and the final attempt's error; MaxRetries < 0 disables
// retrying entirely.
func (p RetryPolicy) Do(op func() error, onRetry func(attempt int, err error)) error {
	p = p.withDefaults()
	start := p.Now()
	rng := tensor.NewRNG(p.Seed)
	attempts := 1
	err := op()
	for attempt := 1; err != nil && attempt <= p.MaxRetries; attempt++ {
		if p.Deadline > 0 && p.Now().Sub(start) >= p.Deadline {
			return &RetryError{Attempts: attempts, DeadlineUp: true, Err: err}
		}
		if onRetry != nil {
			onRetry(attempt, err)
		}
		if d := p.backoffFor(attempt, rng); d > 0 {
			if p.OnBackoff != nil {
				p.OnBackoff(attempt, d)
			}
			p.Sleep(d)
		}
		err = op()
		attempts++
	}
	if err != nil {
		return &RetryError{Attempts: attempts, Err: err}
	}
	return nil
}

// Health is the engine's position on the degradation ladder. The ladder
// only descends through persistent faults and climbs back when a full
// checkpoint lands:
//
//	HealthOK            → all checkpoint paths working
//	HealthDegradedPeer  → surviving peer windows cannot cover the chain
//	                      (crashes or corrupt payloads); the peer strategy
//	                      fell back to the storage-differential path
//	HealthDegradedDiff  → differential writes failing persistently; the
//	                      engine fell back to full checkpoints and drops
//	                      differentials until a new full base lands
//	HealthDegraded      → full checkpoints failing persistently too;
//	                      training continues with checkpointing suspended
type Health int32

const (
	HealthOK Health = iota
	HealthDegradedPeer
	HealthDegradedDiff
	HealthDegraded
)

func (h Health) String() string {
	switch h {
	case HealthOK:
		return "ok"
	case HealthDegradedPeer:
		return "degraded-peer"
	case HealthDegradedDiff:
		return "degraded-diff"
	case HealthDegraded:
		return "degraded"
	default:
		return fmt.Sprintf("Health(%d)", int32(h))
	}
}

// FaultToleranceOptions opts the engine into surviving storage faults:
// persist operations retry per the policy, persistent differential-write
// failures fall back to a full checkpoint, and persistent full-checkpoint
// failures degrade health instead of aborting the run. When Options.
// FaultTolerance is nil the engine keeps its historical fail-fast
// semantics (the first storage error surfaces from Run).
type FaultToleranceOptions struct {
	Retry RetryPolicy
}

// FaultStats counts fault-handling events. All counters are cumulative
// across Run calls and safe to read concurrently.
type FaultStats struct {
	DiffRetries   obs.Counter // differential persist attempts retried
	FullRetries   obs.Counter // full-checkpoint persist attempts retried
	DiffFailures  obs.Counter // differential batches lost after retries
	FullFailures  obs.Counter // full checkpoints lost after retries
	FullFallbacks obs.Counter // diff→full degradations triggered
	DroppedDiffs  obs.Counter // gradients dropped while awaiting a new base
	GCFailures    obs.Counter // retention sweeps that failed
	Degradations  obs.Counter // downward ladder transitions
	Recoveries    obs.Counter // upward ladder transitions (health restored)
	RetryBackoffs obs.Counter // backoff sleeps taken by retrying persists
}

// Snapshot returns the counters as a name → value map (for reports).
func (s *FaultStats) Snapshot() map[string]int64 {
	return map[string]int64{
		"diff_retries":   s.DiffRetries.Value(),
		"full_retries":   s.FullRetries.Value(),
		"diff_failures":  s.DiffFailures.Value(),
		"full_failures":  s.FullFailures.Value(),
		"full_fallbacks": s.FullFallbacks.Value(),
		"dropped_diffs":  s.DroppedDiffs.Value(),
		"gc_failures":    s.GCFailures.Value(),
		"degradations":   s.Degradations.Value(),
		"recoveries":     s.Recoveries.Value(),
		"retry_backoffs": s.RetryBackoffs.Value(),
	}
}

// Health returns the engine's current degradation-ladder position.
func (e *Engine) Health() Health { return Health(e.health.Load()) }

// FaultCounters exposes the engine's fault-handling counters.
func (e *Engine) FaultCounters() *FaultStats { return &e.faults }

// degradeTo moves health down the ladder (never up); it reports whether
// the transition happened.
func (e *Engine) degradeTo(h Health) bool {
	for {
		cur := e.health.Load()
		if cur >= int32(h) {
			return false
		}
		if e.health.CompareAndSwap(cur, int32(h)) {
			e.faults.Degradations.Inc()
			e.events.Emit("health.degrade", map[string]any{
				"from": Health(cur).String(), "to": h.String(),
			})
			return true
		}
	}
}

// restoreHealth climbs back up after a full checkpoint lands while the
// engine is in HealthDegradedDiff. The climb stops at HealthDegradedPeer
// while the peer strategy is still on its storage fallback (the peer plane
// has not been re-validated yet); otherwise it returns to HealthOK.
// HealthDegraded is sticky for the persister (it stops attempting writes),
// so it is not climbed here.
func (e *Engine) restoreHealth() {
	floor := HealthOK
	if e.peerFallback.Load() {
		floor = HealthDegradedPeer
	}
	if e.health.CompareAndSwap(int32(HealthDegradedDiff), int32(floor)) {
		e.faults.Recoveries.Inc()
		e.events.Emit("health.recover", map[string]any{"to": floor.String()})
	}
}
