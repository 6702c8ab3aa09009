package optimizer

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"joinopt/internal/model"
)

// Eval is the optimizer's assessment of one plan against a requirement.
type Eval struct {
	Plan     PlanSpec
	Feasible bool

	// Effort is the minimal per-side effort meeting the requirement:
	// documents for scans, queries for AQG and ZGJN, outer documents for
	// OIJN (Effort[1-OuterIdx] is zero — the inner side's work is implied).
	Effort [2]int

	// Quality is the predicted output composition at Effort (the robust
	// bounds when Inputs.RobustSigma is set).
	Quality model.Quality

	// Time is the predicted cost-model execution time at Effort.
	Time float64

	// Reason explains infeasibility.
	Reason string
}

// Evaluate finds the minimal effort at which plan meets req, per the
// models. The search exploits monotonicity: both good and bad output grow
// with effort, so the minimal effort reaching τg is found by binary search
// and the plan is feasible iff the bad count there is within τb.
//
// For IDJN the two sides advance proportionally — the square-traversal
// heuristic of §VI, minimizing the sum of documents processed given that
// their product drives the good-pair count.
func Evaluate(plan PlanSpec, in *Inputs, req Requirement) (Eval, error) {
	return evaluate(plan, in, req, true)
}

// evaluate is Evaluate. It formats an infeasible plan's Reason only when
// explain is set: only reports read it, and formatting it took about a
// fifth of a memoized plan search.
func evaluate(plan PlanSpec, in *Inputs, req Requirement, explain bool) (Eval, error) {
	fns, reason, err := planFuncs(plan, in)
	if err != nil {
		return Eval{}, err
	}
	best, err := evaluateFns(plan, req, fns, reason, explain)
	if err != nil {
		return Eval{}, err
	}
	// Rectangle exploration for IDJN: try the skewed aspects and keep the
	// cheapest feasible evaluation.
	if plan.JN == IDJN && len(in.RectangleRatios) > 0 {
		for _, ratio := range in.RectangleRatios {
			if ratio == 1 || ratio <= 0 {
				continue
			}
			fns, reason, err := idjnFuncsRatio(plan, in, ratio)
			if err != nil {
				return Eval{}, err
			}
			ev, err := evaluateFns(plan, req, fns, reason, explain)
			if err != nil {
				return Eval{}, err
			}
			if ev.Feasible && (!best.Feasible || ev.Time < best.Time) {
				best = ev
			}
		}
	}
	return best, nil
}

// evaluateFns runs the minimal-effort search against one set of plan
// closures. It formats the search's infeasibility reasons only when
// explain is set.
func evaluateFns(plan PlanSpec, req Requirement, fns *planFns, reason string, explain bool) (Eval, error) {
	if fns == nil {
		return Eval{Plan: plan, Reason: reason}, nil
	}
	quality := fns.quality
	if fns.qualityRobust != nil {
		quality = fns.qualityRobust
	}
	e, q, feasible, err := searchMinEffort(fns.max, req.TauG, quality)
	if err != nil {
		return Eval{}, err
	}
	out := Eval{Plan: plan, Effort: fns.effortPair(e), Quality: q}
	if !feasible {
		if explain {
			out.Reason = fmt.Sprintf("max good %.0f < τg %d", q.Good, req.TauG)
		}
		return out, nil
	}
	if q.Bad > float64(req.TauB) {
		if explain {
			out.Reason = fmt.Sprintf("bad %.0f > τb %d at required effort", q.Bad, req.TauB)
		}
		return out, nil
	}
	out.Feasible = true
	out.Time, err = fns.timeAt(e)
	return out, err
}

// searchMinEffort binary-searches the smallest effort e in [1, max] with
// good(e) ≥ τg. It returns feasible=false when even max falls short. The
// returned quality is always the one measured at the returned effort, so
// Eval.Effort and Eval.Quality cannot disagree even when the quality
// function is not perfectly monotone.
func searchMinEffort(max int, tauG int, quality func(int) (model.Quality, error)) (int, model.Quality, bool, error) {
	qMax, err := quality(max)
	if err != nil {
		return 0, model.Quality{}, false, err
	}
	if qMax.Good < float64(tauG) {
		return max, qMax, false, nil
	}
	// Invariant: (eHi, qHi) is the smallest effort measured to reach τg.
	lo, hi := 1, max
	eHi, qHi := max, qMax
	for lo < hi {
		mid := (lo + hi) / 2
		q, err := quality(mid)
		if err != nil {
			return 0, model.Quality{}, false, err
		}
		if q.Good >= float64(tauG) {
			hi = mid
			eHi, qHi = mid, q
		} else {
			lo = mid + 1
		}
	}
	return eHi, qHi, true, nil
}

// robustQuality collapses a distributional estimate into the conservative
// point the feasibility checks consume: the z-sigma lower bound on good
// output and upper bound on bad output.
func robustQuality(d model.QualityDist, z float64) model.Quality {
	return model.Quality{Good: d.GoodLCB(z), Bad: d.BadUCB(z)}
}

// Choose evaluates every plan and returns the fastest feasible one plus all
// evaluations (for reporting). It returns an error when no plan is
// feasible.
//
// Evaluation runs on sweep's bounded worker pool (Inputs.Workers; one
// worker per CPU by default, 1 evaluates inline). The result is identical
// for any worker count: plans are evaluated independently against
// read-only model state, and the reduction scans the evaluations in plan
// order keeping the strictly fastest feasible plan, so ties break toward
// the earlier plan.
func Choose(plans []PlanSpec, in *Inputs, req Requirement) (Eval, []Eval, error) {
	return choose(plans, in, req, nil, true)
}

// choose is Choose with evaluations served from set, or evaluated directly
// when set is nil, and infeasibility reasons formatted only when explain is
// set.
func choose(plans []PlanSpec, in *Inputs, req Requirement, set *memoSet, explain bool) (Eval, []Eval, error) {
	evals, err := sweep(len(plans), in.Workers, func(i int) (Eval, error) {
		ev, err := set.evaluate(plans[i], in, req, explain)
		if err != nil {
			return Eval{}, fmt.Errorf("optimizer: evaluating %s: %w", plans[i], err)
		}
		return ev, nil
	})
	if err != nil {
		return Eval{}, nil, err
	}
	return pickBest(evals, req)
}

// sweep computes eval(0), …, eval(n-1) on up to workers goroutines (0 = one
// per CPU, ≤ 1 inline) and returns the results in index order. On failure
// it returns the lowest-index error, as an inline loop would: indices are
// claimed in order and every claimed index is evaluated to completion, so
// every index below a failing one has run by the time the workers stop.
func sweep[T any](n, workers int, eval func(int) (T, error)) ([]T, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	out := make([]T, n)
	if workers <= 1 {
		for i := range out {
			var err error
			if out[i], err = eval(i); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				v, err := eval(i)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// pickBest reduces an evaluation list to the fastest feasible plan with the
// deterministic tie-break (lowest time, then plan order).
func pickBest(evals []Eval, req Requirement) (Eval, []Eval, error) {
	best := Eval{Time: math.Inf(1)}
	found := false
	for _, ev := range evals {
		if ev.Feasible && ev.Time < best.Time {
			best = ev
			found = true
		}
	}
	if !found {
		return Eval{}, evals, fmt.Errorf("optimizer: no feasible plan for τg=%d τb=%d", req.TauG, req.TauB)
	}
	return best, evals, nil
}
