package optimizer_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"joinopt/internal/experiments"
	"joinopt/internal/optimizer"
	"joinopt/internal/retrieval"
	"joinopt/internal/workload"
)

var (
	once  sync.Once
	wl    *workload.Workload
	wlErr error
	inT   *optimizer.Inputs
)

var thetas = []float64{0.4, 0.8}

func testSetup(t *testing.T) (*workload.Workload, *optimizer.Inputs) {
	t.Helper()
	once.Do(func() {
		wl, wlErr = workload.HQJoinEX(workload.Params{NumDocs: 1500, Seed: 3})
		if wlErr != nil {
			return
		}
		inT, wlErr = wl.TrueInputs(thetas)
	})
	if wlErr != nil {
		t.Fatal(wlErr)
	}
	return wl, inT
}

func TestEnumeratePlanSpace(t *testing.T) {
	plans := optimizer.Enumerate(thetas)
	// Per θ pair: 9 IDJN + 6 OIJN + 1 ZGJN = 16; 4 θ pairs = 64.
	if len(plans) != 64 {
		t.Fatalf("plan space size %d, want 64", len(plans))
	}
	counts := map[optimizer.Algorithm]int{}
	seen := map[string]bool{}
	for _, p := range plans {
		counts[p.JN]++
		if seen[p.String()] {
			t.Fatalf("duplicate plan %s", p)
		}
		seen[p.String()] = true
	}
	if counts[optimizer.IDJN] != 36 || counts[optimizer.OIJN] != 24 || counts[optimizer.ZGJN] != 4 {
		t.Errorf("algorithm counts %v", counts)
	}
}

func TestPlanString(t *testing.T) {
	p := optimizer.PlanSpec{JN: optimizer.OIJN, Theta: [2]float64{0.8, 0.4}, X: [2]retrieval.Kind{retrieval.AQG, ""}, OuterIdx: 0}
	if !strings.Contains(p.String(), "OIJN") || !strings.Contains(p.String(), "outer=R1/AQG") {
		t.Errorf("plan string %q", p)
	}
}

func TestEvaluateEffortGrowsWithTauG(t *testing.T) {
	_, in := testSetup(t)
	plan := optimizer.PlanSpec{JN: optimizer.IDJN, Theta: [2]float64{0.4, 0.4}, X: [2]retrieval.Kind{retrieval.SC, retrieval.SC}}
	prevEffort := 0
	for _, tauG := range []int{4, 32, 128} {
		ev, err := optimizer.Evaluate(plan, in, optimizer.Requirement{TauG: tauG, TauB: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if !ev.Feasible {
			t.Fatalf("τg=%d should be feasible for a full scan: %s", tauG, ev.Reason)
		}
		if ev.Effort[0] <= prevEffort {
			t.Errorf("effort must grow with τg: %d after %d", ev.Effort[0], prevEffort)
		}
		prevEffort = ev.Effort[0]
		if ev.Quality.Good < float64(tauG) {
			t.Errorf("quality at chosen effort %.0f below τg %d", ev.Quality.Good, tauG)
		}
	}
}

func TestEvaluateInfeasibleTauB(t *testing.T) {
	_, in := testSetup(t)
	plan := optimizer.PlanSpec{JN: optimizer.IDJN, Theta: [2]float64{0.4, 0.4}, X: [2]retrieval.Kind{retrieval.SC, retrieval.SC}}
	ev, err := optimizer.Evaluate(plan, in, optimizer.Requirement{TauG: 100, TauB: 0})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Feasible {
		t.Error("τb=0 at θ=0.4 must be infeasible (fp > 0)")
	}
	if ev.Reason == "" {
		t.Error("infeasible eval should carry a reason")
	}
}

func TestEvaluateUnknownTheta(t *testing.T) {
	_, in := testSetup(t)
	plan := optimizer.PlanSpec{JN: optimizer.IDJN, Theta: [2]float64{0.5, 0.4}, X: [2]retrieval.Kind{retrieval.SC, retrieval.SC}}
	if _, err := optimizer.Evaluate(plan, in, optimizer.Requirement{TauG: 1, TauB: 1}); err == nil {
		t.Error("expected error for unknown θ")
	}
}

func TestChoosePicksFastestFeasible(t *testing.T) {
	_, in := testSetup(t)
	plans := optimizer.Enumerate(thetas)
	req := optimizer.Requirement{TauG: 16, TauB: 160}
	best, evals, err := optimizer.Choose(plans, in, req)
	if err != nil {
		t.Fatal(err)
	}
	if !best.Feasible {
		t.Fatal("chosen plan not feasible")
	}
	for _, ev := range evals {
		if ev.Feasible && ev.Time < best.Time {
			t.Errorf("plan %s (%.0f) faster than chosen %s (%.0f)", ev.Plan, ev.Time, best.Plan, best.Time)
		}
	}
	if len(evals) != len(plans) {
		t.Errorf("expected an evaluation per plan: %d vs %d", len(evals), len(plans))
	}
}

func TestChooseProgressionAcrossRequirements(t *testing.T) {
	// The paper's Table II pattern: query-based plans win small requirements;
	// scan-based IDJN takes over for the largest ones; ZGJN is never chosen.
	_, in := testSetup(t)
	plans := optimizer.Enumerate(thetas)
	small, _, err := optimizer.Choose(plans, in, optimizer.Requirement{TauG: 2, TauB: 30})
	if err != nil {
		t.Fatal(err)
	}
	large, _, err := optimizer.Choose(plans, in, optimizer.Requirement{TauG: 160, TauB: 1600})
	if err != nil {
		t.Fatal(err)
	}
	if small.Time >= large.Time {
		t.Errorf("small requirement (%.0f) should be cheaper than large (%.0f)", small.Time, large.Time)
	}
	if small.Plan.JN == optimizer.ZGJN || large.Plan.JN == optimizer.ZGJN {
		t.Errorf("ZGJN chosen: small=%s large=%s", small.Plan, large.Plan)
	}
	// The large requirement needs broad coverage; a plan restricted to
	// query reach cannot deliver 160 good pairs here, so a scan side must
	// appear.
	usesScan := false
	for side := 0; side < 2; side++ {
		if large.Plan.X[side] == retrieval.SC || large.Plan.X[side] == retrieval.FS {
			usesScan = true
		}
	}
	if large.Plan.JN == optimizer.IDJN && !usesScan {
		t.Errorf("large requirement chose %s without scan coverage", large.Plan)
	}
}

func TestChooseNoFeasiblePlan(t *testing.T) {
	_, in := testSetup(t)
	plans := optimizer.Enumerate(thetas)
	_, evals, err := optimizer.Choose(plans, in, optimizer.Requirement{TauG: 1 << 20, TauB: 1 << 30})
	if err == nil {
		t.Fatal("expected no-feasible-plan error")
	}
	for _, ev := range evals {
		if ev.Feasible {
			t.Fatalf("plan %s claims feasibility for an impossible τg", ev.Plan)
		}
	}
}

func TestZGJNEvaluationIsBounded(t *testing.T) {
	// ZGJN's reach is capped by the query cascade; for very large τg it
	// must report infeasibility rather than invent coverage.
	_, in := testSetup(t)
	plan := optimizer.PlanSpec{JN: optimizer.ZGJN, Theta: [2]float64{0.4, 0.4}}
	ev, err := optimizer.Evaluate(plan, in, optimizer.Requirement{TauG: 1 << 19, TauB: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Feasible {
		t.Error("ZGJN cannot deliver unbounded good pairs")
	}
}

func TestRunAdaptiveMeetsRequirement(t *testing.T) {
	w, _ := testSetup(t)
	env, err := w.NewEnv(thetas)
	if err != nil {
		t.Fatal(err)
	}
	req := optimizer.Requirement{TauG: 16, TauB: 400}
	res, err := optimizer.RunAdaptiveCtx(context.Background(), env, req, optimizer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pilot == nil || res.Final == nil {
		t.Fatal("missing pilot or final state")
	}
	if len(res.Decisions) == 0 {
		t.Fatal("no optimization decisions recorded")
	}
	if res.TotalTime <= res.Pilot.Time {
		t.Error("total time should include execution beyond the pilot")
	}
	if res.Final.GoodPairs < req.TauG {
		t.Errorf("adaptive run delivered %d good pairs, requirement was %d", res.Final.GoodPairs, req.TauG)
	}
}

// TestAdaptiveFinalChoiceIsChooseOverFinalInputs checks the invariant that
// lets a checkpoint without new estimates keep its plan without re-running
// Choose: across the Table II requirements, every adaptive run's last
// decision is exactly what a fresh Choose over the run's final inputs
// returns. At least one row must reach a checkpoint that kept the pilot's
// choice unchanged, so the fixture keeps exercising that path.
func TestAdaptiveFinalChoiceIsChooseOverFinalInputs(t *testing.T) {
	w, err := workload.HQJoinEX(workload.Params{NumDocs: 800, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	env, err := w.NewEnv(thetas)
	if err != nil {
		t.Fatal(err)
	}
	plans := optimizer.Enumerate(thetas)
	checked, kept := 0, 0
	for _, req := range experiments.Table2Reqs {
		res, err := optimizer.RunAdaptiveCtx(context.Background(), env, req, optimizer.Options{})
		if err != nil || len(res.CheckpointErrs) > 0 {
			continue // infeasible at the pilot, or a checkpoint found no plan
		}
		last := res.Decisions[len(res.Decisions)-1].Chosen
		got, _, err := optimizer.Choose(plans, res.Inputs, req)
		if err != nil {
			t.Fatalf("%+v: Choose over the final inputs: %v", req, err)
		}
		if got != last {
			t.Errorf("%+v: Choose over the final inputs = %+v, last decision %+v", req, got, last)
		}
		checked++
		if len(res.Decisions) > 1 && !res.Decisions[1].Switched && res.Decisions[1].Chosen == res.Decisions[0].Chosen {
			kept++
		}
	}
	if checked == 0 || kept == 0 {
		t.Fatalf("%d rows checked, %d kept the pilot's choice at a checkpoint; the fixture no longer exercises that path", checked, kept)
	}
	t.Logf("%d rows checked, %d kept the pilot's choice at a checkpoint", checked, kept)
}

func TestRunAdaptiveIncompleteEnv(t *testing.T) {
	if _, err := optimizer.RunAdaptiveCtx(context.Background(), &optimizer.Env{}, optimizer.Requirement{TauG: 1, TauB: 1}, optimizer.Options{}); err == nil {
		t.Error("expected error for incomplete environment")
	}
}

func TestRobustSigmaIsConservative(t *testing.T) {
	_, in := testSetup(t)
	plans := optimizer.Enumerate(thetas)
	req := optimizer.Requirement{TauG: 32, TauB: 320}
	point, _, err := optimizer.Choose(plans, in, req)
	if err != nil {
		t.Fatal(err)
	}
	robust := *in
	robust.RobustSigma = 2
	rb, evals, err := optimizer.Choose(plans, &robust, req)
	if err != nil {
		t.Fatal(err)
	}
	// The robust margin can only demand more effort (and hence time) from
	// the chosen plan, never less.
	if rb.Time < point.Time-1e-9 {
		t.Errorf("robust choice cheaper than point choice: %.0f vs %.0f", rb.Time, point.Time)
	}
	// Every robust-feasible plan must also be point-feasible.
	pointFeasible := map[string]bool{}
	_, pointEvals, err := optimizer.Choose(plans, in, req)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range pointEvals {
		if ev.Feasible {
			pointFeasible[ev.Plan.String()] = true
		}
	}
	for _, ev := range evals {
		if ev.Feasible && !pointFeasible[ev.Plan.String()] {
			t.Errorf("plan %s robust-feasible but not point-feasible", ev.Plan)
		}
	}
}

func TestRectangleRatiosNeverWorse(t *testing.T) {
	_, in := testSetup(t)
	plan := optimizer.PlanSpec{JN: optimizer.IDJN, Theta: [2]float64{0.4, 0.4},
		X: [2]retrieval.Kind{retrieval.SC, retrieval.SC}}
	req := optimizer.Requirement{TauG: 32, TauB: 1 << 20}
	square, err := optimizer.Evaluate(plan, in, req)
	if err != nil {
		t.Fatal(err)
	}
	rect := *in
	rect.RectangleRatios = []float64{0.25, 0.5, 2, 4}
	best, err := optimizer.Evaluate(plan, &rect, req)
	if err != nil {
		t.Fatal(err)
	}
	if !best.Feasible {
		t.Fatal("rectangle evaluation lost feasibility")
	}
	// The square is in the candidate set implicitly, so exploring more
	// aspects can only match or improve the predicted time.
	if best.Time > square.Time+1e-9 {
		t.Errorf("rectangle exploration worsened time: %.1f vs %.1f", best.Time, square.Time)
	}
	// The square-traversal heuristic should be near-optimal on symmetric
	// databases (the paper's §VI argument: minimize the sum given the
	// product).
	if best.Time < 0.7*square.Time {
		t.Errorf("square heuristic far from optimal on symmetric sides: %.1f vs %.1f", best.Time, square.Time)
	}
}

func TestAsymmetricDatabasesShapeChoices(t *testing.T) {
	// With the same relation content buried in a 3x larger second
	// database, scanning side 2 costs triple for the same yield. The
	// models must price this in: (a) the rectangle exploration strictly
	// improves IDJN's square traversal, and (b) scanning the small side as
	// OIJN's outer beats scanning the big side.
	w, err := workload.HQJoinEX(workload.Params{NumDocs: 600, NumDocs2: 1800, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	in, err := w.TrueInputs(thetas)
	if err != nil {
		t.Fatal(err)
	}
	req := optimizer.Requirement{TauG: 24, TauB: 1 << 20}

	idjn := optimizer.PlanSpec{JN: optimizer.IDJN, Theta: [2]float64{0.4, 0.4},
		X: [2]retrieval.Kind{retrieval.SC, retrieval.SC}}
	square, err := optimizer.Evaluate(idjn, in, req)
	if err != nil {
		t.Fatal(err)
	}
	rectIn := *in
	rectIn.RectangleRatios = []float64{0.25, 0.5, 2, 4}
	rect, err := optimizer.Evaluate(idjn, &rectIn, req)
	if err != nil {
		t.Fatal(err)
	}
	if !square.Feasible || !rect.Feasible {
		t.Fatal("IDJN infeasible on asymmetric workload")
	}
	// The proportional baseline scans side 2 at 3x side 1's rate; an
	// aspect skew toward the small side should pay off.
	if rect.Time >= square.Time {
		t.Errorf("rectangle exploration should improve on asymmetric sides: %.0f vs %.0f",
			rect.Time, square.Time)
	}

	outerSmall := optimizer.PlanSpec{JN: optimizer.OIJN, Theta: [2]float64{0.4, 0.4},
		X: [2]retrieval.Kind{retrieval.SC, ""}, OuterIdx: 0}
	outerBig := optimizer.PlanSpec{JN: optimizer.OIJN, Theta: [2]float64{0.4, 0.4},
		X: [2]retrieval.Kind{"", retrieval.SC}, OuterIdx: 1}
	small, err := optimizer.Evaluate(outerSmall, in, req)
	if err != nil {
		t.Fatal(err)
	}
	big, err := optimizer.Evaluate(outerBig, in, req)
	if err != nil {
		t.Fatal(err)
	}
	if small.Feasible && big.Feasible && small.Time >= big.Time {
		t.Errorf("outer on the small database should be cheaper: %.0f vs %.0f", small.Time, big.Time)
	}
}
