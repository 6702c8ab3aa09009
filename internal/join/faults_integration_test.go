package join_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"joinopt/internal/faults"
	"joinopt/internal/join"
	"joinopt/internal/retrieval"
	"joinopt/internal/workload"
)

// withFaults runs body with the shared workload's fault configuration
// swapped in, restoring the clean configuration afterwards so other tests
// see an unwrapped workload.
func withFaults(w *workload.Workload, p *faults.Profile, pol join.RetryPolicy, body func()) {
	prevP, prevR := w.Faults, w.Retry
	w.Faults, w.Retry = p, pol
	defer func() { w.Faults, w.Retry = prevP, prevR }()
	body()
}

// newExec builds a fresh executor of the named algorithm over the workload,
// honouring the workload's current fault configuration.
func newExec(t *testing.T, w *workload.Workload, algo string, kind retrieval.Kind, theta float64) join.Executor {
	t.Helper()
	mk := func() (join.Executor, error) {
		switch algo {
		case "IDJN":
			x1, err := w.NewStrategy(0, kind)
			if err != nil {
				return nil, err
			}
			x2, err := w.NewStrategy(1, kind)
			if err != nil {
				return nil, err
			}
			return join.NewIDJN(w.Side(0, theta), w.Side(1, theta), x1, x2)
		case "OIJN":
			x, err := w.NewStrategy(0, kind)
			if err != nil {
				return nil, err
			}
			return join.NewOIJN(w.Side(0, theta), w.Side(1, theta), 0, x)
		case "ZGJN":
			return join.NewZGJN(w.Side(0, theta), w.Side(1, theta), w.Seeds)
		}
		return nil, errors.New("unknown algorithm " + algo)
	}
	e, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestZeroRateFaultTransparency is the fault-plumbing property test: with a
// zero-rate profile, every executor's final state — tuples, pairs, time,
// counters — is identical to the unwrapped run. Fault plumbing must be
// provably transparent when faults are off.
func TestZeroRateFaultTransparency(t *testing.T) {
	w := testWorkload(t)
	cases := []struct {
		algo string
		kind retrieval.Kind
	}{
		{"IDJN", retrieval.SC},
		{"IDJN", retrieval.FS},
		{"IDJN", retrieval.AQG},
		{"OIJN", retrieval.SC},
		{"ZGJN", retrieval.SC},
	}
	for _, tc := range cases {
		for _, seed := range []int64{1, 99} {
			clean, err := join.Run(newExec(t, w, tc.algo, tc.kind, 0.4), nil)
			if err != nil {
				t.Fatalf("%s/%s clean run: %v", tc.algo, tc.kind, err)
			}
			var wrapped *join.State
			withFaults(w, &faults.Profile{Seed: seed}, join.RetryPolicy{}, func() {
				wrapped, err = join.Run(newExec(t, w, tc.algo, tc.kind, 0.4), nil)
			})
			if err != nil {
				t.Fatalf("%s/%s wrapped run: %v", tc.algo, tc.kind, err)
			}
			if cs, ws := clean.Snapshot(), wrapped.Snapshot(); cs != ws {
				t.Errorf("%s/%s seed %d: wrapped state diverged:\nclean   %+v\nwrapped %+v",
					tc.algo, tc.kind, seed, cs, ws)
			}
			cg, cb := resultCounts(clean)
			wg, wb := resultCounts(wrapped)
			if cg != wg || cb != wb {
				t.Errorf("%s/%s seed %d: result (%d, %d) != clean (%d, %d)",
					tc.algo, tc.kind, seed, wg, wb, cg, cb)
			}
		}
	}
}

// TestTransientFaultsFullyRecovered is acceptance criterion (a) end to end:
// at a modest transient fault rate every failure is recovered by retries —
// the output and work counters match the clean run exactly, only time (and
// RetriesSpent) grow.
func TestTransientFaultsFullyRecovered(t *testing.T) {
	w := testWorkload(t)
	clean, err := join.Run(newExec(t, w, "IDJN", retrieval.SC, 0.4), nil)
	if err != nil {
		t.Fatal(err)
	}
	p := faults.Uniform(3, 0.02)
	for i := 0; i < 2; i++ {
		p.Fetch[i].ExtraCost = 2
		p.Next[i].ExtraCost = 2
	}
	var faulty *join.State
	withFaults(w, p, join.RetryPolicy{}, func() {
		faulty, err = join.Run(newExec(t, w, "IDJN", retrieval.SC, 0.4), nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	if faulty.DocsFailed != [2]int{} {
		t.Fatalf("transient faults at rate 0.02 with default retries lost documents: %v", faulty.DocsFailed)
	}
	if faulty.RetriesSpent[0]+faulty.RetriesSpent[1] == 0 {
		t.Fatal("no retries spent; injection did not engage")
	}
	if faulty.GoodPairs != clean.GoodPairs || faulty.BadPairs != clean.BadPairs ||
		faulty.DocsProcessed != clean.DocsProcessed {
		t.Errorf("recovered run diverged: pairs (%d, %d) docs %v vs clean (%d, %d) %v",
			faulty.GoodPairs, faulty.BadPairs, faulty.DocsProcessed,
			clean.GoodPairs, clean.BadPairs, clean.DocsProcessed)
	}
	if faulty.Time <= clean.Time {
		t.Errorf("retry and injection time not charged: %v <= %v", faulty.Time, clean.Time)
	}
	if faulty.Degraded {
		t.Error("fully recovered run must not be degraded")
	}
}

// TestExhaustedRetriesDegradeGracefully is acceptance criterion (b) at the
// execution level: fault bursts longer than the retry budget lose documents,
// which are skipped and accounted rather than failing the run.
func TestExhaustedRetriesDegradeGracefully(t *testing.T) {
	w := testWorkload(t)
	p := &faults.Profile{Seed: 7}
	for i := 0; i < 2; i++ {
		p.Fetch[i] = faults.Spec{Prob: 0.05, Burst: 6} // burst outlasts 1+3 attempts
	}
	var st *join.State
	var err error
	withFaults(w, p, join.RetryPolicy{}, func() {
		st, err = join.Run(newExec(t, w, "IDJN", retrieval.SC, 0.4), nil)
	})
	if err != nil {
		t.Fatalf("document loss within budget must not fail the run: %v", err)
	}
	lost := st.DocsFailed[0] + st.DocsFailed[1]
	if lost == 0 {
		t.Fatal("burst faults should have exhausted retries for some documents")
	}
	if !st.Degraded {
		t.Error("lossy run must be marked degraded")
	}
	if st.DocsProcessed[0]+st.DocsProcessed[1]+lost != w.DB[0].Size()+w.DB[1].Size() {
		t.Errorf("every document must be processed or accounted lost: processed %v + lost %d != %d",
			st.DocsProcessed, lost, w.DB[0].Size()+w.DB[1].Size())
	}
}

// TestFailureBudgetAborts checks the budget abort path and the step-error
// wrapping: the error names the algorithm and step and unwraps to
// ErrFailureBudget.
func TestFailureBudgetAborts(t *testing.T) {
	w := testWorkload(t)
	p := &faults.Profile{Seed: 9}
	for i := 0; i < 2; i++ {
		p.Fetch[i] = faults.Spec{Prob: 0.5, Permanent: true}
	}
	var err error
	withFaults(w, p, join.RetryPolicy{FailureBudget: 3}, func() {
		_, err = join.Run(newExec(t, w, "IDJN", retrieval.SC, 0.4), nil)
	})
	if !errors.Is(err, join.ErrFailureBudget) {
		t.Fatalf("err = %v, want ErrFailureBudget", err)
	}
	if !strings.Contains(err.Error(), "IDJN step ") {
		t.Errorf("step error must name algorithm and step, got %q", err)
	}
}

// TestDeadlineStopsGracefully checks the cost-model deadline: the run stops
// without error once Time passes it, recording the hit.
func TestDeadlineStopsGracefully(t *testing.T) {
	w := testWorkload(t)
	e := newExec(t, w, "IDJN", retrieval.SC, 0.4)
	e.State().Deadline = 500
	st, err := join.Run(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !st.DeadlineHit {
		t.Fatal("deadline not recorded")
	}
	if st.Time < 500 || st.Time > 500+100 {
		t.Errorf("stopped at time %v, want just past 500", st.Time)
	}
	if st.DocsProcessed[0] >= w.DB[0].Size() {
		t.Error("deadline did not actually cut the run short")
	}
}

// TestRunCtxCancel checks cooperative cancellation: the run returns the
// context error together with a consistent, checkpointable state.
func TestRunCtxCancel(t *testing.T) {
	w := testWorkload(t)
	e := newExec(t, w, "IDJN", retrieval.SC, 0.4)
	ctx, cancel := context.WithCancel(context.Background())
	st, err := join.RunCtx(ctx, e, func(s *join.State) bool {
		if s.DocsProcessed[0] >= 50 {
			cancel()
		}
		return false
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st.DocsProcessed[0] < 50 || st.DocsProcessed[0] > 60 {
		t.Errorf("cancelled state processed %v docs", st.DocsProcessed)
	}
	snap := st.Snapshot()
	if snap.Steps == 0 || snap.Steps != st.Steps {
		t.Errorf("cancelled state not checkpointable: %+v", snap)
	}
}

// TestReplayReproducesFaultyRun checks checkpoint/resume under injection: a
// replayed executor re-encounters the identical faults and reaches the
// identical state, and continuing both runs yields identical final results.
func TestReplayReproducesFaultyRun(t *testing.T) {
	w := testWorkload(t)
	p := faults.Uniform(13, 0.05)
	withFaults(w, p, join.RetryPolicy{}, func() {
		orig := newExec(t, w, "IDJN", retrieval.SC, 0.4)
		if _, err := join.Run(orig, func(s *join.State) bool { return s.DocsProcessed[0] >= 100 }); err != nil {
			t.Fatal(err)
		}
		snap := orig.State().Snapshot()

		resumed := newExec(t, w, "IDJN", retrieval.SC, 0.4)
		if err := join.Replay(resumed, snap); err != nil {
			t.Fatalf("replay to checkpoint: %v", err)
		}

		// Both finish; they must agree exactly.
		finalO, err := join.Run(orig, nil)
		if err != nil {
			t.Fatal(err)
		}
		finalR, err := join.Run(resumed, nil)
		if err != nil {
			t.Fatal(err)
		}
		if so, sr := finalO.Snapshot(), finalR.Snapshot(); so != sr {
			t.Errorf("resumed final state diverged:\noriginal %+v\nresumed  %+v", so, sr)
		}
	})
}
