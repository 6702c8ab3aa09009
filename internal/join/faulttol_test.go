package join

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"joinopt/internal/corpus"
	"joinopt/internal/retrieval"
)

// tempErr is a scripted substrate failure; the bool is its transience.
type tempErr bool

func (e tempErr) Error() string   { return fmt.Sprintf("stub failure (transient=%v)", bool(e)) }
func (e tempErr) Temporary() bool { return bool(e) }

// stubSource fails according to its script (nil = success), then succeeds.
type stubSource struct {
	script []error
	costs  []float64
	call   int
}

func (s *stubSource) Size() int { return 1 << 20 }

func (s *stubSource) Fetch(id int) (*corpus.Document, float64, error) {
	n := s.call
	s.call++
	var cost float64
	if n < len(s.costs) {
		cost = s.costs[n]
	}
	if n < len(s.script) && s.script[n] != nil {
		return nil, cost, s.script[n]
	}
	return &corpus.Document{ID: id, Text: "stub"}, cost, nil
}

func testSide(src DocSource, pol RetryPolicy) *Side {
	return &Side{Source: src, Retry: pol, Costs: Costs{TR: 1, TE: 5, TF: 0.1, TQ: 2}}
}

// TestFetchDocRetriesTransient is acceptance criterion (a) at the unit
// level: two transient failures are fully recovered by retries, and the
// extra time charged is exactly the injected costs plus the deterministic
// backoff delays plus one retrieval round-trip per retry.
func TestFetchDocRetriesTransient(t *testing.T) {
	pol := RetryPolicy{MaxRetries: 3, BaseDelay: 1, MaxDelay: 8}
	src := &stubSource{
		script: []error{tempErr(true), tempErr(true), nil},
		costs:  []float64{2.5, 2.5, 0.25},
	}
	s := testSide(src, pol)
	st, _ := newTestState()
	doc, ok, err := fetchDoc(st, 0, s, 7)
	if err != nil || !ok || doc == nil || doc.ID != 7 {
		t.Fatalf("fetchDoc = %v, %v, %v; want recovered document", doc, ok, err)
	}
	if st.RetriesSpent[0] != 2 || st.DocsFailed[0] != 0 || st.Degraded {
		t.Errorf("accounting: retries=%d failed=%d degraded=%v", st.RetriesSpent[0], st.DocsFailed[0], st.Degraded)
	}
	want := 2.5 + 2.5 + 0.25 + // injected per-call costs
		pol.backoff(0, 0, 1) + pol.backoff(1, 0, 2) + // deterministic backoff
		2*s.Costs.TR // each retry re-pays the retrieval round-trip
	if math.Abs(st.Time-want) > 1e-12 {
		t.Errorf("Time = %v, want %v", st.Time, want)
	}
}

func TestFetchDocExhaustsRetries(t *testing.T) {
	pol := RetryPolicy{MaxRetries: 2, BaseDelay: 1, MaxDelay: 8}
	src := &stubSource{script: []error{tempErr(true), tempErr(true), tempErr(true), tempErr(true)}}
	s := testSide(src, pol)
	st, _ := newTestState()
	doc, ok, err := fetchDoc(st, 1, s, 0)
	if err != nil || ok || doc != nil {
		t.Fatalf("fetchDoc = %v, %v, %v; want accounted skip", doc, ok, err)
	}
	if st.DocsFailed[1] != 1 || st.RetriesSpent[1] != 2 || !st.Degraded {
		t.Errorf("accounting: failed=%d retries=%d degraded=%v", st.DocsFailed[1], st.RetriesSpent[1], st.Degraded)
	}
	if src.call != 3 { // 1 attempt + 2 retries
		t.Errorf("source called %d times, want 3", src.call)
	}
}

func TestFetchDocPermanentNoRetry(t *testing.T) {
	src := &stubSource{script: []error{tempErr(false)}}
	s := testSide(src, RetryPolicy{})
	st, _ := newTestState()
	_, ok, err := fetchDoc(st, 0, s, 0)
	if err != nil || ok {
		t.Fatalf("fetchDoc ok=%v err=%v; want accounted skip", ok, err)
	}
	if src.call != 1 || st.RetriesSpent[0] != 0 {
		t.Errorf("permanent failure must not be retried: calls=%d retries=%d", src.call, st.RetriesSpent[0])
	}
}

func TestFetchDocFailureBudget(t *testing.T) {
	pol := RetryPolicy{MaxRetries: -1, FailureBudget: 1}
	src := &stubSource{script: []error{tempErr(true), tempErr(true)}}
	s := testSide(src, pol)
	st, _ := newTestState()
	if _, _, err := fetchDoc(st, 0, s, 0); err != nil {
		t.Fatalf("first loss within budget, got %v", err)
	}
	_, _, err := fetchDoc(st, 0, s, 1)
	if !errors.Is(err, ErrFailureBudget) {
		t.Fatalf("second loss must abort with ErrFailureBudget, got %v", err)
	}
	if st.DocsFailed[0] != 2 {
		t.Errorf("DocsFailed = %d, want 2", st.DocsFailed[0])
	}
}

func TestFetchDocDeadlineStopsRetries(t *testing.T) {
	pol := RetryPolicy{MaxRetries: 5, BaseDelay: 1, MaxDelay: 8}
	src := &stubSource{script: []error{tempErr(true), tempErr(true), tempErr(true)}}
	s := testSide(src, pol)
	st, _ := newTestState()
	st.Deadline = 100
	st.Time = 100 // already at the deadline: no retry may be charged
	_, ok, err := fetchDoc(st, 0, s, 0)
	if err != nil || ok {
		t.Fatalf("fetchDoc ok=%v err=%v; want skip at deadline", ok, err)
	}
	if src.call != 1 || !st.DeadlineHit {
		t.Errorf("retrying past the deadline: calls=%d deadlineHit=%v", src.call, st.DeadlineHit)
	}
}

// stubStrategy scripts NextFallible errors; successes stream 0, 1, 2, …
type stubStrategy struct {
	script []error
	call   int
	id     int
}

func (s *stubStrategy) Next() (int, bool)        { id := s.id; s.id++; return id, true }
func (s *stubStrategy) Kind() retrieval.Kind     { return retrieval.SC }
func (s *stubStrategy) Counts() retrieval.Counts { return retrieval.Counts{} }
func (s *stubStrategy) NextFallible() (int, bool, float64, error) {
	n := s.call
	s.call++
	if n < len(s.script) && s.script[n] != nil {
		return 0, false, 0.5, s.script[n]
	}
	id := s.id
	s.id++
	return id, true, 0, nil
}

func TestPullDocRetriesWithoutSkipping(t *testing.T) {
	strat := &stubStrategy{script: []error{tempErr(true), nil, tempErr(true), tempErr(true), nil}}
	s := testSide(nil, RetryPolicy{MaxRetries: 3, BaseDelay: 1, MaxDelay: 8})
	st, _ := newTestState()
	var got []int
	for len(got) < 2 {
		id, ok, skip, err := pullDoc(st, 0, s, strat)
		if err != nil || skip || !ok {
			t.Fatalf("pullDoc = %d, %v, %v, %v", id, ok, skip, err)
		}
		got = append(got, id)
	}
	if got[0] != 0 || got[1] != 1 {
		t.Errorf("pulled %v; retried pulls must not skip stream positions", got)
	}
	if st.RetriesSpent[0] != 3 {
		t.Errorf("RetriesSpent = %d, want 3", st.RetriesSpent[0])
	}
}

func TestPullDocTransientExhaustionSkips(t *testing.T) {
	strat := &stubStrategy{script: []error{tempErr(true), tempErr(true)}}
	s := testSide(nil, RetryPolicy{MaxRetries: 1, BaseDelay: 1, MaxDelay: 8})
	st, _ := newTestState()
	_, ok, skip, err := pullDoc(st, 1, s, strat)
	if err != nil || ok || !skip {
		t.Fatalf("pullDoc ok=%v skip=%v err=%v; want skip", ok, skip, err)
	}
	if st.DocsFailed[1] != 1 || !st.Degraded {
		t.Errorf("skip must be accounted: failed=%d degraded=%v", st.DocsFailed[1], st.Degraded)
	}
	// The stream survives: the next pull succeeds from position 0.
	id, ok, skip, err := pullDoc(st, 1, s, strat)
	if err != nil || !ok || skip || id != 0 {
		t.Fatalf("stream died after skip: id=%d ok=%v skip=%v err=%v", id, ok, skip, err)
	}
}

func TestPullDocPermanentExhaustsStream(t *testing.T) {
	strat := &stubStrategy{script: []error{tempErr(false)}}
	s := testSide(nil, RetryPolicy{})
	st, _ := newTestState()
	_, ok, skip, err := pullDoc(st, 0, s, strat)
	if err != nil || ok || skip {
		t.Fatalf("pullDoc ok=%v skip=%v err=%v; want exhausted stream", ok, skip, err)
	}
	if !st.Degraded {
		t.Error("permanent stream failure must mark the execution degraded")
	}
	if st.DocsFailed[0] != 0 {
		t.Errorf("stream death is not a per-document loss, got DocsFailed=%d", st.DocsFailed[0])
	}
}

func TestBackoffDeterministicCappedJittered(t *testing.T) {
	pol := RetryPolicy{}.resolved()
	for attempt := 0; attempt < 6; attempt++ {
		for spent := 1; spent < 20; spent++ {
			a := pol.backoff(attempt, 0, spent)
			if b := pol.backoff(attempt, 0, spent); a != b {
				t.Fatalf("backoff not deterministic: %v != %v", a, b)
			}
			base := math.Min(pol.BaseDelay*math.Pow(2, float64(attempt)), pol.MaxDelay)
			if a < base*0.5 || a >= base*1.5 {
				t.Fatalf("backoff(%d, 0, %d) = %v outside jitter range of %v", attempt, spent, a, base)
			}
			if other := pol.backoff(attempt, 1, spent); other == a {
				t.Fatalf("sides share jitter at attempt=%d spent=%d", attempt, spent)
			}
		}
	}
}

func TestRetryPolicyResolved(t *testing.T) {
	r := RetryPolicy{}.resolved()
	if r != DefaultRetry {
		t.Errorf("zero policy resolved to %+v, want DefaultRetry", r)
	}
	if got := (RetryPolicy{MaxRetries: -1}).resolved().MaxRetries; got != 0 {
		t.Errorf("negative MaxRetries resolved to %d, want 0 (disabled)", got)
	}
}

func TestIsTemporary(t *testing.T) {
	if !isTemporary(errors.New("plain")) {
		t.Error("unknown errors must default to transient")
	}
	if isTemporary(tempErr(false)) {
		t.Error("permanent errors must not be retried")
	}
	if !isTemporary(fmt.Errorf("wrapped: %w", tempErr(true))) {
		t.Error("transience must unwrap through %w chains")
	}
}

func TestSnapshotRestore(t *testing.T) {
	st, _ := newTestState()
	st.Steps = 42
	st.Time = 1234.5
	st.DocsProcessed = [2]int{10, 12}
	st.DocsFailed = [2]int{1, 0}
	st.Degraded = true
	snap := st.Snapshot()

	replayed, _ := newTestState()
	replayed.Steps = 42
	replayed.Time = 1234.5 * (1 + 1e-9) // float accumulation noise is fine
	replayed.DocsProcessed = [2]int{10, 12}
	replayed.DocsFailed = [2]int{1, 0}
	replayed.Degraded = true
	if err := replayed.Restore(snap); err != nil {
		t.Fatalf("Restore of matching state failed: %v", err)
	}
	if replayed.Time != snap.Time {
		t.Errorf("Restore must adopt the snapshot time, got %v", replayed.Time)
	}

	diverged, _ := newTestState()
	diverged.Steps = 42
	diverged.Time = 1234.5
	diverged.DocsProcessed = [2]int{11, 12}
	if err := diverged.Restore(snap); err == nil {
		t.Error("Restore must reject a diverged state")
	}
	late, _ := newTestState()
	late.Steps = 42
	late.Time = 2000
	if err := late.Restore(snap); err == nil {
		t.Error("Restore must reject a diverged time")
	}
}
