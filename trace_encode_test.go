package joinopt_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"

	"joinopt"
	"joinopt/internal/obs"
)

// collector keeps every event a run emits.
type collector struct {
	mu  sync.Mutex
	evs []obs.Event
}

func (c *collector) Emit(e obs.Event) {
	c.mu.Lock()
	c.evs = append(c.evs, e)
	c.mu.Unlock()
}

// TestTraceAppendJSONMatchesMarshal is the encoder's oracle on real
// traffic: every event of traced runs that together emit every event kind
// in the taxonomy must encode to exactly the bytes json.Marshal writes. The
// runs are an adaptive run that switches plans and records a checkpoint
// error, a cached adaptive run, fault-injected runs with retries under a
// failure budget (one completing, one aborted by it), a deadline-stopped
// run, and an n-ary query.
func TestTraceAppendJSONMatchesMarshal(t *testing.T) {
	ctx := context.Background()
	c := &collector{}
	trace := joinopt.WithTracer(joinopt.NewTrace(c))
	task := func(seed int64) *joinopt.Task {
		tk, err := joinopt.NewHQJoinEX(joinopt.WorkloadParams{NumDocs: 1200, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return tk
	}

	if _, err := task(4).Run(ctx, joinopt.Requirement{TauG: 24, TauB: 12}, trace); err != nil {
		t.Fatal(err)
	}
	if _, err := task(3).Run(ctx, joinopt.Requirement{TauG: 32, TauB: 64}, trace,
		joinopt.WithExtractionCache(32<<20)); err != nil {
		t.Fatal(err)
	}
	faults, err := joinopt.ParseFaultProfile("fetch=0.3,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	fixed := task(2)
	if _, err := fixed.Run(ctx, joinopt.Requirement{}, trace, joinopt.WithPlan(scanPlan()),
		joinopt.WithFaults(faults), joinopt.WithRetries(joinopt.RetryPolicy{MaxRetries: 1, FailureBudget: 1000})); err != nil {
		t.Fatal(err)
	}
	if _, err := fixed.Run(ctx, joinopt.Requirement{}, trace, joinopt.WithPlan(scanPlan()),
		joinopt.WithFaults(faults), joinopt.WithRetries(joinopt.RetryPolicy{MaxRetries: 1, FailureBudget: 3})); !errors.Is(err, joinopt.ErrFailureBudget) {
		t.Fatalf("budgeted run: err = %v, want ErrFailureBudget", err)
	}
	if _, err := fixed.Run(ctx, joinopt.Requirement{}, trace, joinopt.WithPlan(scanPlan()),
		joinopt.WithDeadline(50)); !errors.Is(err, joinopt.ErrDeadline) {
		t.Fatalf("deadline run: err = %v, want ErrDeadline", err)
	}
	nary, err := joinopt.NewQuery(joinopt.WorkloadParams{NumDocs: 450, Seed: 9},
		joinopt.Query{Relations: []string{"HQ", "EX", "MG"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nary.Run(ctx, joinopt.Requirement{TauG: 5, TauB: 1 << 30}, trace); err != nil {
		t.Fatal(err)
	}

	seen := map[obs.Kind]int{}
	cached := 0
	for _, e := range c.evs {
		want, err := json.Marshal(e)
		if err != nil {
			t.Fatalf("json.Marshal(%+v): %v", e, err)
		}
		got, err := e.AppendJSON(nil)
		if err != nil {
			t.Fatalf("AppendJSON(%+v): %v", e, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendJSON diverged from json.Marshal:\n got  %s\n want %s", got, want)
		}
		seen[e.Kind]++
		if e.Attrs["cached"] == true {
			cached++
		}
	}
	for _, k := range []obs.Kind{
		obs.KindRunStart, obs.KindRunEnd, obs.KindPilotDone, obs.KindPlanChosen,
		obs.KindPlanSwitch, obs.KindCheckpoint, obs.KindCheckpointError, obs.KindStep,
		obs.KindDocProcessed, obs.KindDocFailed, obs.KindTupleExtracted, obs.KindTupleJoined,
		obs.KindRetry, obs.KindQuery, obs.KindFault, obs.KindDeadline,
		obs.KindStepError, obs.KindSideExhausted,
	} {
		if seen[k] == 0 {
			t.Errorf("no %s event among the %d checked", k, len(c.evs))
		}
	}
	if cached == 0 {
		t.Error(`no "cached":true event among the checked`)
	}
}
