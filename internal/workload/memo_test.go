package workload

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"joinopt/internal/faults"
	"joinopt/internal/obs"
	"joinopt/internal/optimizer"
	"joinopt/internal/pipeline"
)

// TestPilotMemoizedOnlyWhenPure pins when an adaptive run takes its pilot
// from the task's plan-search memo. A clone with no extraction cache, fault
// profile, deadline, trace sink or metrics registry reuses the first pure
// run's pilot: the very same read-only state. Each of those five forces a
// real pilot, as do other pilot options. Every run still bills the pilot
// and decides as the first one did.
func TestPilotMemoizedOnlyWhenPure(t *testing.T) {
	w, err := HQJoinEX(Params{NumDocs: 1000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	req := optimizer.Requirement{TauG: 8, TauB: 200}
	run := func(c *Workload, opts optimizer.Options) *optimizer.Result {
		t.Helper()
		env, err := c.NewEnv([]float64{0.4, 0.8})
		if err != nil {
			t.Fatal(err)
		}
		res, err := optimizer.RunAdaptiveCtx(context.Background(), env, req, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run(w.Clone(), optimizer.Options{})
	second := run(w.Clone(), optimizer.Options{ChooseWorkers: 1})
	if second.Pilot != first.Pilot {
		t.Error("a pure run piloted again instead of taking the memoized pilot")
	}
	if second.TotalTime != first.TotalTime || second.Decisions[0] != first.Decisions[0] {
		t.Errorf("the memoized pilot changed the run: total %v, first decision %+v; want %v, %+v",
			second.TotalTime, second.Decisions[0], first.TotalTime, first.Decisions[0])
	}
	if second.Inputs == first.Inputs {
		t.Error("two runs share one Inputs; each must get its own copy")
	}

	// Rate-0 faults and an unreachable deadline change no answer, so only
	// the pilot's identity may differ from the first run's.
	forced := []struct {
		name string
		set  func(*Workload)
		same bool // the run must decide as the first one did
	}{
		{"extraction cache", func(c *Workload) { c.Cache = pipeline.NewCache(1 << 20) }, false},
		{"fault profile", func(c *Workload) { c.Faults = faults.Uniform(1, 0) }, true},
		{"deadline", func(c *Workload) { c.Deadline = 1e12 }, true},
		{"trace sink", func(c *Workload) { c.Trace = obs.New(obs.NewRing(16)) }, true},
		{"metrics registry", func(c *Workload) { c.Metrics = obs.NewRegistry() }, true},
	}
	for _, f := range forced {
		c := w.Clone()
		f.set(c)
		res := run(c, optimizer.Options{})
		if res.Pilot == first.Pilot {
			t.Errorf("%s: the run took the memoized pilot", f.name)
		}
		if f.same && (res.TotalTime != first.TotalTime || res.Decisions[0] != first.Decisions[0]) {
			t.Errorf("%s: total %v, first decision %+v; want %v, %+v",
				f.name, res.TotalTime, res.Decisions[0], first.TotalTime, first.Decisions[0])
		}
	}
	if res := run(w.Clone(), optimizer.Options{PilotFraction: 0.2}); res.Pilot == first.Pilot {
		t.Error("a run with another pilot fraction took the memoized pilot")
	}
}

// TestConcurrentPureRunsShareOneMemo: pure adaptive runs racing on one
// task's memo from several goroutines, on the pilot and on plan
// evaluations alike, decide and bill exactly as runs without the memo.
// make race runs it under the race detector.
func TestConcurrentPureRunsShareOneMemo(t *testing.T) {
	w, err := HQJoinEX(Params{NumDocs: 1000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	thetas := []float64{0.4, 0.8}
	reqs := []optimizer.Requirement{{TauG: 4, TauB: 40}, {TauG: 8, TauB: 200}, {TauG: 32, TauB: 320}}
	env, err := w.NewEnv(thetas)
	if err != nil {
		t.Fatal(err)
	}
	bare := *env
	bare.Memo = nil
	want := make([]*optimizer.Result, len(reqs))
	for i, req := range reqs {
		if want[i], err = optimizer.RunAdaptiveCtx(context.Background(), &bare, req, optimizer.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	errs := make([]error, 2*len(reqs))
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := g % len(reqs)
			env, err := w.Clone().NewEnv(thetas)
			if err != nil {
				errs[g] = err
				return
			}
			res, err := optimizer.RunAdaptiveCtx(context.Background(), env, reqs[i], optimizer.Options{})
			switch {
			case err != nil:
				errs[g] = err
			case res.TotalTime != want[i].TotalTime || !reflect.DeepEqual(res.Decisions, want[i].Decisions):
				errs[g] = fmt.Errorf("%+v: total %v, decisions %+v; without the memo %v, %+v",
					reqs[i], res.TotalTime, res.Decisions, want[i].TotalTime, want[i].Decisions)
			}
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}
