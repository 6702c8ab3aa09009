package joinopt_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"joinopt"
)

var (
	taskOnce sync.Once
	task     *joinopt.Task
	taskErr  error
)

func facadeTask(t *testing.T) *joinopt.Task {
	t.Helper()
	taskOnce.Do(func() {
		task, taskErr = joinopt.NewHQJoinEX(joinopt.WorkloadParams{NumDocs: 1200, Seed: 2})
	})
	if taskErr != nil {
		t.Fatal(taskErr)
	}
	return task
}

func TestFacadeTaskConstruction(t *testing.T) {
	tk := facadeTask(t)
	r1, r2 := tk.Relations()
	if !strings.Contains(r1, "Headquarters") || !strings.Contains(r2, "Executives") {
		t.Errorf("relations %q, %q", r1, r2)
	}
	d1, d2 := tk.DatabaseSizes()
	if d1 != 1200 || d2 != 1200 {
		t.Errorf("sizes %d, %d", d1, d2)
	}
	if tk.GoldJoinSize() <= 0 {
		t.Error("gold join size must be positive")
	}
}

func TestFacadeExecutePlan(t *testing.T) {
	tk := facadeTask(t)
	plan := joinopt.Plan{
		Algorithm: joinopt.IndependentJoin,
		Theta:     [2]float64{0.4, 0.4},
		X:         [2]joinopt.Strategy{joinopt.Scan, joinopt.Scan},
	}
	res, err := tk.Run(context.Background(), joinopt.Requirement{}, joinopt.WithPlan(plan),
		joinopt.WithStop(func(p joinopt.Progress) bool { return p.GoodTuples >= 8 }))
	if err != nil {
		t.Fatal(err)
	}
	out := res.Outcome
	if out.GoodTuples < 8 {
		t.Errorf("stopped with %d good tuples", out.GoodTuples)
	}
	if out.Time <= 0 {
		t.Error("no time charged")
	}
	tuples := out.Tuples()
	if len(tuples) == 0 {
		t.Fatal("no tuples materialized")
	}
	// The labels must agree with the task's gold sets.
	for _, jt := range tuples {
		if jt.Good != tk.Gold(jt) {
			t.Fatalf("tuple %v label disagrees with gold", jt)
		}
	}
}

func TestFacadeExecuteAllAlgorithms(t *testing.T) {
	tk := facadeTask(t)
	plans := []joinopt.Plan{
		{Algorithm: joinopt.IndependentJoin, Theta: [2]float64{0.4, 0.4},
			X: [2]joinopt.Strategy{joinopt.AutoQueryGen, joinopt.FilteredScan}},
		{Algorithm: joinopt.OuterInnerJoin, Theta: [2]float64{0.4, 0.4},
			X: [2]joinopt.Strategy{joinopt.Scan, joinopt.QueryRetrieve}, OuterIdx: 0},
		{Algorithm: joinopt.ZigZagJoin, Theta: [2]float64{0.4, 0.4}},
	}
	for _, plan := range plans {
		res, err := tk.Run(context.Background(), joinopt.Requirement{}, joinopt.WithPlan(plan),
			joinopt.WithStop(func(p joinopt.Progress) bool {
				return p.DocsProcessed[0]+p.DocsProcessed[1] >= 400
			}))
		if err != nil {
			t.Fatalf("%s: %v", plan, err)
		}
		if out := res.Outcome; out.DocsProcessed[0]+out.DocsProcessed[1] == 0 {
			t.Errorf("%s processed nothing", plan)
		}
	}
}

func TestFacadeOptimize(t *testing.T) {
	tk := facadeTask(t)
	best, err := tk.Optimize(joinopt.Requirement{TauG: 4, TauB: 80})
	if err != nil {
		t.Fatal(err)
	}
	if !best.Feasible || best.EstimatedGood < 4 {
		t.Errorf("optimize returned %+v", best)
	}
	if best.Plan.Algorithm == "" {
		t.Error("no algorithm chosen")
	}
}

func TestFacadeEvaluatePlans(t *testing.T) {
	tk := facadeTask(t)
	evals, err := tk.EvaluatePlans(joinopt.Requirement{TauG: 4, TauB: 80})
	if err != nil {
		t.Fatal(err)
	}
	if len(evals) != 64 {
		t.Fatalf("plan space %d", len(evals))
	}
	feasible := 0
	for _, e := range evals {
		if e.Feasible {
			feasible++
			if e.EstimatedTime <= 0 {
				t.Errorf("feasible plan %s without time", e.Plan)
			}
		} else if e.Reason == "" {
			t.Errorf("infeasible plan %s without reason", e.Plan)
		}
	}
	if feasible == 0 {
		t.Error("no feasible plans for a modest requirement")
	}
}

func TestFacadeRunAdaptive(t *testing.T) {
	tk := facadeTask(t)
	res, err := tk.Run(context.Background(), joinopt.Requirement{TauG: 8, TauB: 200})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome == nil || len(res.Plans) == 0 {
		t.Fatal("adaptive run incomplete")
	}
	if res.Outcome.GoodTuples < 8 {
		t.Errorf("adaptive run delivered %d good tuples", res.Outcome.GoodTuples)
	}
	if res.TotalTime < res.Outcome.Time {
		t.Error("total time must include the pilot")
	}
}

func TestFacadeFaultInjection(t *testing.T) {
	tk := facadeTask(t)
	defer func() { tk.Faults, tk.Retry, tk.Deadline = nil, joinopt.RetryPolicy{}, 0 }()

	plan := joinopt.Plan{
		Algorithm: joinopt.IndependentJoin,
		Theta:     [2]float64{0.4, 0.4},
		X:         [2]joinopt.Strategy{joinopt.Scan, joinopt.Scan},
	}
	cleanRes, err := tk.Run(context.Background(), joinopt.Requirement{}, joinopt.WithPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	clean := cleanRes.Outcome
	if clean.RetriesSpent != [2]int{} || clean.Degraded {
		t.Fatalf("clean run reports fault telemetry: %+v", clean)
	}

	tk.Faults = joinopt.UniformFaults(5, 0.02)
	faultyRes, err := tk.Run(context.Background(), joinopt.Requirement{}, joinopt.WithPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	faulty := faultyRes.Outcome
	if faulty.RetriesSpent == [2]int{} {
		t.Error("fault injection did not engage")
	}
	if faulty.GoodTuples != clean.GoodTuples || faulty.BadTuples != clean.BadTuples {
		t.Errorf("transient faults at rate 0.02 changed the output: (%d, %d) vs (%d, %d)",
			faulty.GoodTuples, faulty.BadTuples, clean.GoodTuples, clean.BadTuples)
	}
	if faulty.Time <= clean.Time {
		t.Error("retry time not charged")
	}

	tk.Faults = nil
	tk.Deadline = clean.Time / 4
	cutRes, err := tk.Run(context.Background(), joinopt.Requirement{}, joinopt.WithPlan(plan))
	if !errors.Is(err, joinopt.ErrDeadline) {
		t.Fatalf("deadline-stopped run returned %v, want ErrDeadline", err)
	}
	cut := cutRes.Outcome
	if !cut.DeadlineHit || cut.DocsProcessed[0]+cut.DocsProcessed[1] >= clean.DocsProcessed[0]+clean.DocsProcessed[1] {
		t.Errorf("deadline did not cut the run: %+v", cut)
	}
}

func TestFacadeParseFaultProfile(t *testing.T) {
	if p, err := joinopt.ParseFaultProfile(""); p != nil || err != nil {
		t.Errorf("empty profile = %v, %v; want nil, nil", p, err)
	}
	if p, err := joinopt.ParseFaultProfile("rate=0.1,seed=3"); p == nil || err != nil {
		t.Errorf("valid profile = %v, %v", p, err)
	}
	if _, err := joinopt.ParseFaultProfile("rate=high"); err == nil {
		t.Error("malformed profile must be rejected")
	}
}

func TestFacadeFigures(t *testing.T) {
	tk := facadeTask(t)
	for _, id := range []string{"fig9", "fig12"} {
		text, err := tk.Figure(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.Contains(text, "estimated") {
			t.Errorf("%s rendering incomplete", id)
		}
	}
	if _, err := tk.Figure("fig99"); err == nil {
		t.Error("expected error for unknown figure")
	}
}

func TestFacadeMGWorkload(t *testing.T) {
	tk, err := joinopt.NewMGJoinEX(joinopt.WorkloadParams{NumDocs: 800, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := tk.Relations()
	if !strings.Contains(r1, "Mergers") {
		t.Errorf("relation %q", r1)
	}
}

func TestFacadeTaskPairValidation(t *testing.T) {
	if _, err := joinopt.NewTaskPair(joinopt.WorkloadParams{NumDocs: 800}, "HQ", "HQ"); err == nil {
		t.Error("expected error for identical tasks")
	}
}

func TestFacadePlanString(t *testing.T) {
	p := joinopt.Plan{Algorithm: joinopt.ZigZagJoin, Theta: [2]float64{0.4, 0.8}}
	if !strings.Contains(p.String(), "ZGJN") {
		t.Errorf("plan string %q", p)
	}
}

func TestFacadePreferences(t *testing.T) {
	tk := facadeTask(t)
	best, req, err := tk.OptimizePrecision(8, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if req.TauG != 8 || req.TauB != 24 {
		t.Errorf("precision mapping %+v", req)
	}
	if !best.Feasible {
		t.Error("precision preference infeasible")
	}

	bestR, reqR, err := tk.OptimizeRecall(0.2)
	if err != nil {
		t.Fatal(err)
	}
	if reqR.TauG <= 0 || !bestR.Feasible {
		t.Errorf("recall preference failed: %+v / %+v", bestR, reqR)
	}

	budgeted, err := tk.OptimizeWithinBudget(3000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if budgeted.EstimatedTime > 3000 {
		t.Errorf("budget exceeded: %v", budgeted.EstimatedTime)
	}
	if budgeted.EstimatedGood <= 0 {
		t.Error("budgeted plan predicts no output")
	}
}

func TestFacadeOptimizeRobust(t *testing.T) {
	tk := facadeTask(t)
	point, err := tk.Optimize(joinopt.Requirement{TauG: 16, TauB: 400})
	if err != nil {
		t.Fatal(err)
	}
	robust, err := tk.OptimizeRobust(joinopt.Requirement{TauG: 16, TauB: 400}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if robust.EstimatedTime < point.EstimatedTime-1e-9 {
		t.Errorf("robust plan cheaper than point plan: %v vs %v", robust.EstimatedTime, point.EstimatedTime)
	}
}

func TestFacadeVerification(t *testing.T) {
	tk := facadeTask(t)
	acceptGood, rejectBad, err := tk.VerifierAccuracy(0.6, 1)
	if err != nil {
		t.Fatal(err)
	}
	for side := 0; side < 2; side++ {
		if acceptGood[side] < 0.5 || rejectBad[side] < 0.5 {
			t.Errorf("side %d verifier does not separate: accept %.2f reject %.2f",
				side, acceptGood[side], rejectBad[side])
		}
	}
	// Verification raises the precision of a permissive join's output.
	plan := joinopt.Plan{
		Algorithm: joinopt.IndependentJoin,
		Theta:     [2]float64{0.4, 0.4},
		X:         [2]joinopt.Strategy{joinopt.Scan, joinopt.Scan},
	}
	res, err := tk.Run(context.Background(), joinopt.Requirement{}, joinopt.WithPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	out := res.Outcome
	tuples := out.Tuples()
	rawPrec := float64(out.GoodTuples) / float64(out.GoodTuples+out.BadTuples)
	kept, keptGood := 0, 0
	for _, jt := range tuples {
		ok, err := tk.VerifyJoinTuple(jt, 0.6, 1)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			kept++
			if jt.Good {
				keptGood++
			}
		}
	}
	if kept == 0 {
		t.Fatal("verification rejected everything")
	}
	verifiedPrec := float64(keptGood) / float64(kept)
	if verifiedPrec <= rawPrec {
		t.Errorf("verification should raise precision: %.2f -> %.2f", rawPrec, verifiedPrec)
	}
}

func TestFacadeTableII(t *testing.T) {
	// TableII sweeps all 64 plans; run it on a small dedicated task.
	tk, err := joinopt.NewHQJoinEX(joinopt.WorkloadParams{NumDocs: 800, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	text, err := tk.TableII()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "chosen plan") || !strings.Contains(text, "τg") {
		t.Errorf("Table II rendering incomplete:\n%s", text[:200])
	}
}
