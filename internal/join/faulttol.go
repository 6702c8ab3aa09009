package join

import (
	"errors"
	"fmt"
	"math"

	"joinopt/internal/corpus"
	"joinopt/internal/obs"
	"joinopt/internal/retrieval"
)

// DocSource resolves document IDs to documents, possibly failing and
// possibly charging extra cost-model time (injected latency, slow
// interfaces). A side with a Source set fetches documents through it; a side
// without one reads its database directly and cannot fail.
type DocSource interface {
	Size() int
	Fetch(id int) (*corpus.Document, float64, error)
}

// ErrFailureBudget aborts an execution whose side lost more documents than
// its retry policy tolerates.
var ErrFailureBudget = errors.New("failure budget exhausted")

// ErrDeadline marks an execution cut short by its cost-model deadline. The
// join layer itself treats deadlines as graceful stops (Run returns the
// state with a nil error and DeadlineHit set); the facade's Run API wraps
// deadline-stopped results with this sentinel so callers can errors.Is it.
var ErrDeadline = errors.New("deadline exceeded")

// StepError is a fatal executor step failure, carrying the algorithm and
// the step count at which it occurred. It wraps the underlying cause, so
// errors.Is(err, ErrFailureBudget) and friends see through it.
type StepError struct {
	Algorithm string
	Step      int
	Err       error
}

// Error renders the step coordinates with the cause.
func (e *StepError) Error() string {
	return fmt.Sprintf("join: %s step %d: %v", e.Algorithm, e.Step, e.Err)
}

// Unwrap exposes the underlying cause.
func (e *StepError) Unwrap() error { return e.Err }

// RetryPolicy governs how substrate failures — document fetches, retrieval
// pulls — are retried and how much loss an execution tolerates. The zero
// value resolves to DefaultRetry.
type RetryPolicy struct {
	// MaxRetries is the number of retries after the first attempt of an
	// operation (negative disables retrying; 0 resolves to the default).
	MaxRetries int
	// BaseDelay is the cost-model time of the first backoff; each further
	// retry doubles it up to MaxDelay, and deterministic jitter in
	// [0.5, 1.5) spreads retry storms.
	BaseDelay float64
	MaxDelay  float64
	// FailureBudget is the number of documents a side may lose (retries
	// exhausted) before the execution aborts with ErrFailureBudget;
	// 0 tolerates unlimited loss.
	FailureBudget int
}

// DefaultRetry is the policy a zero-value RetryPolicy resolves to: three
// retries behind capped exponential backoff, unlimited failure budget.
var DefaultRetry = RetryPolicy{MaxRetries: 3, BaseDelay: 1, MaxDelay: 8}

// resolved maps zero fields to their defaults.
func (p RetryPolicy) resolved() RetryPolicy {
	switch {
	case p.MaxRetries < 0:
		p.MaxRetries = 0
	case p.MaxRetries == 0:
		p.MaxRetries = DefaultRetry.MaxRetries
	}
	if p.BaseDelay == 0 {
		p.BaseDelay = DefaultRetry.BaseDelay
	}
	if p.MaxDelay == 0 {
		p.MaxDelay = DefaultRetry.MaxDelay
	}
	return p
}

// mixRetry is the SplitMix64 finalizer, used to derive deterministic jitter.
func mixRetry(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// backoff returns the cost-model delay charged before retry attempt
// (0-based) on side i, given the side's total retries spent so far. The
// jitter factor in [0.5, 1.5) is a pure function of (side, spent), never of
// wall-clock time or global RNG state, so a replayed execution re-derives
// the identical delays.
func (p RetryPolicy) backoff(attempt, side, spent int) float64 {
	d := p.BaseDelay * math.Pow(2, float64(attempt))
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	h := mixRetry(uint64(side+1)*0x9e3779b97f4a7c15 + uint64(spent))
	jitter := 0.5 + float64(h>>11)/float64(uint64(1)<<53)
	return d * jitter
}

// temporary is the net-style transience convention: errors advertising
// Temporary() are retried; others are treated as permanent. Errors that
// don't implement it at all default to transient (one flaky call shouldn't
// kill a long execution).
type temporary interface{ Temporary() bool }

func isTemporary(err error) bool {
	var t temporary
	if errors.As(err, &t) {
		return t.Temporary()
	}
	return true
}

// deadlineExpired reports whether the execution's cost-model deadline has
// passed, recording the hit.
func (st *State) deadlineExpired() bool {
	if st.Deadline > 0 && st.Time >= st.Deadline {
		st.DeadlineHit = true
		return true
	}
	return false
}

// failDoc accounts one lost document on side i and enforces the side's
// failure budget.
func (st *State) failDoc(i int, pol RetryPolicy) error {
	st.DocsFailed[i]++
	st.Degraded = true
	st.Metrics.Failed(i)
	if st.Trace.Enabled() {
		st.Trace.EmitAt(st.Time, obs.KindDocFailed, i+1, map[string]any{"failed": st.DocsFailed[i]})
	}
	if pol.FailureBudget > 0 && st.DocsFailed[i] > pol.FailureBudget {
		return fmt.Errorf("join: side %d lost %d documents: %w", i+1, st.DocsFailed[i], ErrFailureBudget)
	}
	return nil
}

// traceRetry records one retry of op ("fetch" or "pull") on side i.
func (st *State) traceRetry(i int, op string, attempt int, cause error) {
	st.Metrics.Retry(i)
	if st.Trace.Enabled() {
		st.Trace.EmitAt(st.Time, obs.KindRetry, i+1,
			map[string]any{"op": op, "attempt": attempt, "err": cause.Error()})
	}
}

// fetchDoc resolves a document through the side's source, retrying
// transient failures under the side's policy. Each retry is charged its
// backoff delay plus a fresh retrieval round-trip (Costs.TR); injected
// latency rides along on the source's cost return. ok is false when the
// document was lost (skipped and accounted); err is non-nil only when the
// failure budget aborts the execution.
func fetchDoc(st *State, i int, s *Side, id int) (doc *corpus.Document, ok bool, err error) {
	if s.Source == nil {
		return s.DB.Doc(id), true, nil
	}
	pol := s.Retry.resolved()
	for attempt := 0; ; attempt++ {
		doc, cost, err := s.Source.Fetch(id)
		st.Time += cost
		if err == nil {
			return doc, true, nil
		}
		if attempt < pol.MaxRetries && isTemporary(err) && !st.deadlineExpired() {
			st.RetriesSpent[i]++
			st.Time += pol.backoff(attempt, i, st.RetriesSpent[i]) + s.Costs.TR
			st.traceRetry(i, "fetch", attempt, err)
			continue
		}
		return nil, false, st.failDoc(i, pol)
	}
}

// pullDoc pulls the next document ID from a side's retrieval stream,
// retrying transient failures under the side's policy. Failed pulls do not
// advance the stream (see retrieval.Fallible), so a successful retry
// resumes exactly where it left off. skip is true when a transiently
// failing pull exhausted its retries: the pull is abandoned and accounted
// as one lost document, but the stream stays alive and the caller moves on.
// ok is false when the stream is exhausted — genuinely, or through a
// permanent interface failure (recorded as degradation). err is non-nil
// only when the failure budget aborts the execution.
func pullDoc(st *State, i int, s *Side, strat retrieval.Strategy) (id int, ok, skip bool, err error) {
	pol := s.Retry.resolved()
	for attempt := 0; ; attempt++ {
		id, ok, cost, err := retrieval.Pull(strat)
		st.Time += cost
		if err == nil {
			return id, ok, false, nil
		}
		if attempt < pol.MaxRetries && isTemporary(err) && !st.deadlineExpired() {
			st.RetriesSpent[i]++
			st.Time += pol.backoff(attempt, i, st.RetriesSpent[i])
			st.traceRetry(i, "pull", attempt, err)
			continue
		}
		if isTemporary(err) {
			return 0, false, true, st.failDoc(i, pol)
		}
		// Permanent interface failure: the rest of the stream is out of
		// reach. Treat the side as exhausted, degraded.
		st.Degraded = true
		return 0, false, false, nil
	}
}

// Snapshot is a compact, replayable checkpoint of a join execution: the
// step count plus the accounting needed to verify a replay reached the same
// point. Executors are deterministic (as is fault injection), so replaying
// Steps executor steps from an identically-constructed executor reproduces
// the full state — relations, join result, and all.
type Snapshot struct {
	Steps int
	Time  float64

	// CacheSaved mirrors State.CacheSaved: the per-side extraction time
	// cache hits made free. Time + ΣCacheSaved is invariant under cache
	// warmth, so Restore can verify a replay whose hit/miss pattern differs
	// from the original run's (a resume over a warmer — or colder — cache).
	CacheSaved [2]float64

	GoodPairs int
	BadPairs  int
	JoinSize  int

	DocsProcessed [2]int
	DocsRetrieved [2]int
	DocsFiltered  [2]int
	Queries       [2]int
	DocsFailed    [2]int
	RetriesSpent  [2]int

	Degraded    bool
	DeadlineHit bool
}

// Snapshot captures the execution's current checkpoint.
func (st *State) Snapshot() Snapshot {
	return Snapshot{
		Steps:         st.Steps,
		Time:          st.Time,
		CacheSaved:    st.CacheSaved,
		GoodPairs:     st.GoodPairs,
		BadPairs:      st.BadPairs,
		JoinSize:      st.joinSize,
		DocsProcessed: st.DocsProcessed,
		DocsRetrieved: st.DocsRetrieved,
		DocsFiltered:  st.DocsFiltered,
		Queries:       st.Queries,
		DocsFailed:    st.DocsFailed,
		RetriesSpent:  st.RetriesSpent,
		Degraded:      st.Degraded,
		DeadlineHit:   st.DeadlineHit,
	}
}

// Restore verifies that st — typically produced by replaying snap.Steps
// steps of an identically-constructed executor — matches the snapshot, and
// adopts the snapshot's recorded time and cache accounting verbatim
// (replayed float accumulation can differ in the last bits). It returns an
// error describing the first divergence found.
//
// Time itself is not compared directly: a replay may run against a cache
// warmer or colder than the original run saw (the shared cache keeps every
// entry the interrupted prefix put, and a disk tier survives restarts), so
// its hit/miss pattern — and with it the billed Time — can legitimately
// differ. What must match is the warmth-invariant total Time + ΣCacheSaved:
// every other counter, and the extracted tuples themselves, are identical
// regardless of where the extraction bytes came from. Adopting the
// snapshot's Time afterwards makes the resumed run bill exactly what the
// uninterrupted run would have.
func (st *State) Restore(snap Snapshot) error {
	got := st.Snapshot()
	gotInv := got.Time + got.CacheSaved[0] + got.CacheSaved[1]
	snapInv := snap.Time + snap.CacheSaved[0] + snap.CacheSaved[1]
	relTol := math.Abs(snapInv) * 1e-6
	if math.Abs(gotInv-snapInv) > relTol+1e-9 {
		return fmt.Errorf("join: restore diverged: cache-invariant time %.6f != snapshot %.6f", gotInv, snapInv)
	}
	got.Time, got.CacheSaved = snap.Time, snap.CacheSaved
	if got != snap {
		return fmt.Errorf("join: restore diverged: replayed %+v != snapshot %+v", got, snap)
	}
	st.Time = snap.Time
	st.CacheSaved = snap.CacheSaved
	return nil
}

// Replay advances a fresh executor to a snapshot's step count and verifies
// the resulting state matches. The executor must be constructed identically
// to the one that produced the snapshot — same sides, strategies, document
// sources, and fault profile; deterministic execution and deterministic
// fault injection then reproduce the state exactly, including every injected
// failure and retry of the original run.
func Replay(e Executor, snap Snapshot) error {
	for e.State().Steps < snap.Steps {
		before := e.State().Steps
		if _, err := e.Step(); err != nil {
			return fmt.Errorf("join: %s replay step %d: %w", e.Algorithm(), e.State().Steps, err)
		}
		if e.State().Steps == before {
			return fmt.Errorf("join: %s replay stuck at step %d of %d", e.Algorithm(), before, snap.Steps)
		}
	}
	return e.State().Restore(snap)
}
