package optimizer_test

import (
	"context"
	"errors"
	"testing"

	"joinopt/internal/join"
	"joinopt/internal/optimizer"
)

// stepCounter wraps an executor to count steps across a whole adaptive run
// (pilot included) and to cancel a context at a chosen step, simulating an
// interruption at an arbitrary point of the protocol.
type stepCounter struct {
	join.Executor
	n      *int
	limit  int
	cancel context.CancelFunc
}

func (c stepCounter) Step() (bool, error) {
	*c.n++
	if c.limit > 0 && *c.n == c.limit {
		c.cancel()
	}
	return c.Executor.Step()
}

// countingEnv derives an environment whose executors all report their steps
// into n; with a positive limit, step number limit cancels ctx. It clears
// PurePilot, as every Env that replaces NewExecutor must: its runs pilot
// for real, so the pilot's steps are counted and can be interrupted.
func countingEnv(base *optimizer.Env, n *int, limit int, cancel context.CancelFunc) *optimizer.Env {
	env := *base
	env.PurePilot = false
	inner := base.NewExecutor
	env.NewExecutor = func(p optimizer.PlanSpec) (join.Executor, error) {
		e, err := inner(p)
		if err != nil {
			return nil, err
		}
		return stepCounter{Executor: e, n: n, limit: limit, cancel: cancel}, nil
	}
	return &env
}

// TestResumeAdaptiveMatchesUninterrupted is acceptance criterion (c): an
// adaptive run interrupted at an arbitrary step and resumed from its
// checkpoint produces exactly the state, decisions, and billed time of the
// uninterrupted run (at zero fault rate).
func TestResumeAdaptiveMatchesUninterrupted(t *testing.T) {
	w, _ := testSetup(t)
	env, err := w.NewEnv(thetas)
	if err != nil {
		t.Fatal(err)
	}
	req := optimizer.Requirement{TauG: 16, TauB: 400}
	opts := optimizer.Options{}

	// Uninterrupted baseline, counting the run's total executor steps.
	total := 0
	base, err := optimizer.RunAdaptiveCtx(context.Background(), countingEnv(env, &total, 0, nil), req, opts)
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Fatal("step counter not engaged")
	}

	for _, frac := range []float64{0.3, 0.6, 0.95} {
		limit := int(frac * float64(total))
		ctx, cancel := context.WithCancel(context.Background())
		n := 0
		res, err := optimizer.RunAdaptiveCtx(ctx, countingEnv(env, &n, limit, cancel), req, opts)
		cancel()
		if err == nil {
			// The cancellation landed between the last context check and
			// completion; nothing to resume, but the result must match.
			compareRuns(t, frac, base, res)
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("interrupt at %.0f%%: err = %v, want context.Canceled", frac*100, err)
		}
		if res == nil || res.Checkpoint == nil {
			t.Fatalf("interrupt at %.0f%%: no checkpoint on cancelled run", frac*100)
		}
		t.Logf("interrupted at step %d/%d in phase %d", limit, total, res.Checkpoint.Phase)

		resumed, err := optimizer.ResumeAdaptiveCtx(context.Background(), env, req, opts, res.Checkpoint)
		if err != nil {
			t.Fatalf("resume from %.0f%%: %v", frac*100, err)
		}
		compareRuns(t, frac, base, resumed)
	}
}

// compareRuns requires exact agreement between the uninterrupted baseline
// and a resumed (or late-cancelled) run: final execution state, billed time,
// and the full decision log.
func compareRuns(t *testing.T, frac float64, base, got *optimizer.Result) {
	t.Helper()
	if got.Final == nil {
		t.Fatalf("interrupt at %.0f%%: run did not complete", frac*100)
	}
	if bs, gs := base.Final.Snapshot(), got.Final.Snapshot(); bs != gs {
		t.Errorf("interrupt at %.0f%%: final state diverged:\nbaseline %+v\nresumed  %+v", frac*100, bs, gs)
	}
	if base.TotalTime != got.TotalTime {
		t.Errorf("interrupt at %.0f%%: TotalTime %v != baseline %v", frac*100, got.TotalTime, base.TotalTime)
	}
	if len(base.Decisions) != len(got.Decisions) {
		t.Fatalf("interrupt at %.0f%%: %d decisions != baseline %d", frac*100, len(got.Decisions), len(base.Decisions))
	}
	for i := range base.Decisions {
		b, g := base.Decisions[i], got.Decisions[i]
		if b.Chosen.Plan != g.Chosen.Plan || b.AtTime != g.AtTime || b.Switched != g.Switched {
			t.Errorf("interrupt at %.0f%%: decision %d diverged: %s@%v vs baseline %s@%v",
				frac*100, i, g.Chosen.Plan, g.AtTime, b.Chosen.Plan, b.AtTime)
		}
	}
	if len(base.CheckpointErrs) != len(got.CheckpointErrs) {
		t.Errorf("interrupt at %.0f%%: %d checkpoint errors != baseline %d",
			frac*100, len(got.CheckpointErrs), len(base.CheckpointErrs))
	}
}

// TestResumeAdaptiveRejectsBadCheckpoint pins the resume API's input
// validation.
func TestResumeAdaptiveRejectsBadCheckpoint(t *testing.T) {
	w, _ := testSetup(t)
	env, err := w.NewEnv(thetas)
	if err != nil {
		t.Fatal(err)
	}
	req := optimizer.Requirement{TauG: 1, TauB: 100}
	if _, err := optimizer.ResumeAdaptiveCtx(context.Background(), env, req, optimizer.Options{}, nil); err == nil {
		t.Error("nil checkpoint must be rejected")
	}
	if _, err := optimizer.ResumeAdaptiveCtx(context.Background(), env, req, optimizer.Options{}, &optimizer.Checkpoint{}); err == nil {
		t.Error("checkpoint without estimates must be rejected")
	}
}
