package joinopt_test

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"joinopt"
)

// renderEvaluations prints plan evaluations, one a line, with their
// estimates as bits.
func renderEvaluations(evs ...joinopt.PlanEvaluation) string {
	var b strings.Builder
	for _, ev := range evs {
		fmt.Fprintf(&b, "%s feasible=%t reason=%q good=%#x bad=%#x time=%#x\n", ev.Plan, ev.Feasible, ev.Reason,
			math.Float64bits(ev.EstimatedGood), math.Float64bits(ev.EstimatedBad), math.Float64bits(ev.EstimatedTime))
	}
	return b.String()
}

// renderQueryPlan prints an n-ary plan with its estimates as bits.
func renderQueryPlan(qp joinopt.QueryPlan) string {
	return fmt.Sprintf("%s good=%#x bad=%#x time=%#x merge=%#x", qp,
		math.Float64bits(qp.EstimatedGood), math.Float64bits(qp.EstimatedBad),
		math.Float64bits(qp.EstimatedTime), math.Float64bits(qp.EstimatedMergeTuples))
}

// TestConcurrentRunsOnOneTask pins the Task concurrency contract: one Task
// hammered by concurrent Run calls — adaptive and fixed-plan (Scan and
// Filtered Scan), with per-run traces, metrics, fault profiles, pipelined
// workers, shards, and the shared extraction cache — must race-cleanly
// produce, per configuration, the same output composition as a sequential
// run. Concurrent Optimize, EvaluatePlans and (on an n-ary task)
// OptimizeQuery calls race to measure the perfect-knowledge statistics and
// must return, bit for bit, what a twin task built with the same
// parameters returns. Every reference comes from twins, so on tk and tq the
// goroutines below are the first to fill the extraction tables and to
// request the statistics. Run it under -race.
func TestConcurrentRunsOnOneTask(t *testing.T) {
	params := joinopt.WorkloadParams{NumDocs: 500, Seed: 21}
	newTask := func() *joinopt.Task {
		tk, err := joinopt.NewHQJoinEX(params)
		if err != nil {
			t.Fatal(err)
		}
		tk.ExtractCacheBytes = 4 << 20
		return tk
	}
	tk, twin := newTask(), newTask()
	req := joinopt.Requirement{TauG: 5, TauB: 120}
	plan := joinopt.Plan{
		Algorithm: joinopt.IndependentJoin,
		Theta:     [2]float64{0.4, 0.4},
		X:         [2]joinopt.Strategy{joinopt.Scan, joinopt.Scan},
	}
	planFS := plan
	planFS.X = [2]joinopt.Strategy{joinopt.FilteredScan, joinopt.FilteredScan}

	// Sequential references for each configuration the goroutines replay.
	refAdaptive, err := twin.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	refFixed, err := twin.Run(context.Background(), req, joinopt.WithPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	refFS, err := twin.Run(context.Background(), req, joinopt.WithPlan(planFS))
	if err != nil {
		t.Fatal(err)
	}
	best, err := twin.Optimize(req)
	if err != nil {
		t.Fatal(err)
	}
	refOptimize := renderEvaluations(best)
	evals, err := twin.EvaluatePlans(req)
	if err != nil {
		t.Fatal(err)
	}
	refEvaluate := renderEvaluations(evals...)
	qparams := joinopt.WorkloadParams{NumDocs: 450, Seed: 9}
	query := joinopt.Query{Relations: []string{"HQ", "EX", "MG"}}
	qreq := joinopt.Requirement{TauG: 5, TauB: 1 << 30}
	tq, err := joinopt.NewQuery(qparams, query)
	if err != nil {
		t.Fatal(err)
	}
	twinQ, err := joinopt.NewQuery(qparams, query)
	if err != nil {
		t.Fatal(err)
	}
	qp, err := twinQ.OptimizeQuery(qreq)
	if err != nil {
		t.Fatal(err)
	}
	refQuery := renderQueryPlan(qp)

	const optimizers = 9
	var wg sync.WaitGroup
	oerrs := make([]error, optimizers)
	oouts := make([]string, optimizers)
	wg.Add(optimizers)
	for i := 0; i < optimizers; i++ {
		go func(i int) {
			defer wg.Done()
			switch i % 3 {
			case 0:
				ev, err := tk.Optimize(req)
				oouts[i], oerrs[i] = renderEvaluations(ev), err
			case 1:
				evs, err := tk.EvaluatePlans(req)
				oouts[i], oerrs[i] = renderEvaluations(evs...), err
			case 2:
				qp, err := tq.OptimizeQuery(qreq)
				oouts[i], oerrs[i] = renderQueryPlan(qp), err
			}
		}(i)
	}

	const goroutines = 15
	errs := make([]error, goroutines)
	outs := make([]*joinopt.Outcome, goroutines)
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func(i int) {
			defer wg.Done()
			opts := []joinopt.RunOption{
				joinopt.WithTracer(joinopt.NewTrace(joinopt.NewRingSink(256))),
				joinopt.WithMetrics(joinopt.NewMetrics()),
			}
			switch i % 5 {
			case 0: // adaptive
			case 1:
				opts = append(opts, joinopt.WithPlan(plan), joinopt.WithExecWorkers(2))
			case 2:
				opts = append(opts, joinopt.WithPlan(plan), joinopt.WithFaults(nil))
			case 3:
				opts = append(opts, joinopt.WithPlan(planFS))
			case 4:
				opts = append(opts, joinopt.WithPlan(planFS), joinopt.WithShards(2), joinopt.WithExecWorkers(2))
			}
			res, err := tk.Run(context.Background(), req, opts...)
			if err != nil {
				errs[i] = err
				return
			}
			outs[i] = res.Outcome
			// Concurrent readers of the shared cache accounting are part of
			// the contract.
			_ = tk.ExtractionCacheStats()
		}(i)
	}
	wg.Wait()

	for i := 0; i < optimizers; i++ {
		if oerrs[i] != nil {
			t.Fatalf("optimizer goroutine %d: %v", i, oerrs[i])
		}
		want := [...]string{refOptimize, refEvaluate, refQuery}[i%3]
		if oouts[i] != want {
			t.Errorf("optimizer goroutine %d diverged from its twin:\n got  %s\n want %s", i, oouts[i], want)
		}
	}
	saved := 0.0
	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		ref := [...]*joinopt.Outcome{refAdaptive.Outcome, refFixed.Outcome, refFixed.Outcome, refFS.Outcome, refFS.Outcome}[i%5]
		if outs[i].GoodTuples != ref.GoodTuples || outs[i].BadTuples != ref.BadTuples {
			t.Errorf("goroutine %d: output (good=%d bad=%d) diverged from sequential (good=%d bad=%d)",
				i, outs[i].GoodTuples, outs[i].BadTuples, ref.GoodTuples, ref.BadTuples)
		}
		saved += outs[i].CacheSaved[0] + outs[i].CacheSaved[1]
	}
	// Every run, sharded or not, reads the task's one cache: its own stats
	// and the extraction time the runs' outcomes saved both show the hits.
	if s := tk.ExtractionCacheStats(); s.Hits == 0 {
		t.Errorf("shared extraction cache reports no hits across concurrent runs: %+v", s)
	}
	if saved == 0 {
		t.Error("concurrent runs saved no extraction time through the shared cache")
	}
}
