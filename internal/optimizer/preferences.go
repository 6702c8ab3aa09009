package optimizer

import (
	"fmt"
	"math"

	"joinopt/internal/model"
	"joinopt/internal/retrieval"
)

// Alternative user preference models (§III-C): the paper's quality
// requirement is the low-level (τg, τb) pair, and it notes that other cost
// functions — minimum precision at top-k, minimum recall at the end of
// execution, or maximizing quality within a time budget — "can be mapped to
// the (somewhat lower level) model". This file implements those mappings.

// Preference converts a high-level user preference into the low-level
// requirement against concrete plan-space inputs (the mapping may need
// database statistics, e.g. the achievable good-tuple total for recall).
type Preference interface {
	// Requirement resolves the preference to a (τg, τb) pair.
	Requirement(in *Inputs) (Requirement, error)
}

// MinPrecision asks for at least Good good tuples with output precision at
// least P: τb = Good·(1−P)/P.
type MinPrecision struct {
	Good int
	P    float64
}

// Requirement implements Preference.
func (m MinPrecision) Requirement(*Inputs) (Requirement, error) {
	if m.Good <= 0 || m.P <= 0 || m.P > 1 {
		return Requirement{}, fmt.Errorf("optimizer: invalid precision preference good=%d p=%v", m.Good, m.P)
	}
	tauB := int(math.Floor(float64(m.Good) * (1 - m.P) / m.P))
	return Requirement{TauG: m.Good, TauB: tauB}, nil
}

// MinRecall asks for at least fraction Recall of the achievable good join
// tuples, with bad output bounded by BadPerGood × τg (default 10). The
// achievable total is the model's full-effort estimate of |Tgood⋈| under
// the most permissive knob setting with full scans — the paper's "minimum
// recall at the end of execution".
type MinRecall struct {
	Recall     float64
	BadPerGood float64
}

// Requirement implements Preference.
func (m MinRecall) Requirement(in *Inputs) (Requirement, error) {
	if m.Recall <= 0 || m.Recall > 1 {
		return Requirement{}, fmt.Errorf("optimizer: invalid recall %v", m.Recall)
	}
	total, err := AchievableGood(in)
	if err != nil {
		return Requirement{}, err
	}
	tauG := int(math.Ceil(m.Recall * total))
	if tauG < 1 {
		tauG = 1
	}
	bpg := m.BadPerGood
	if bpg <= 0 {
		bpg = 10
	}
	return Requirement{TauG: tauG, TauB: int(math.Ceil(bpg * float64(tauG)))}, nil
}

// AchievableGood estimates the good-tuple total a full double scan yields
// under the most permissive knob setting — the denominator of recall-style
// preferences.
func AchievableGood(in *Inputs) (float64, error) {
	if len(in.Thetas) == 0 {
		return 0, fmt.Errorf("optimizer: no knob settings")
	}
	theta := in.Thetas[0]
	for _, t := range in.Thetas[1:] {
		if t < theta {
			theta = t
		}
	}
	p1, err := in.params(0, theta)
	if err != nil {
		return 0, err
	}
	p2, err := in.params(1, theta)
	if err != nil {
		return 0, err
	}
	m := &model.IDJNModel{P1: p1, P2: p2, X1: retrieval.SC, X2: retrieval.SC, Ov: in.Ov}
	q, err := m.Estimate(p1.D, p2.D)
	if err != nil {
		return 0, err
	}
	return q.Good, nil
}

// ChoosePreferred resolves a preference and picks the fastest plan meeting
// the derived requirement.
func ChoosePreferred(plans []PlanSpec, in *Inputs, pref Preference) (Eval, Requirement, error) {
	req, err := pref.Requirement(in)
	if err != nil {
		return Eval{}, Requirement{}, err
	}
	best, _, err := Choose(plans, in, req)
	return best, req, err
}

// ChooseWithinBudget implements the paper's time-budget preference:
// maximize the predicted good output subject to a hard execution-time
// budget, discarding operating points whose bad output exceeds
// maxBadPerGood × good (≤ 0 disables the ratio constraint). For every plan
// it finds the largest effort whose predicted time fits the budget (time is
// monotone in effort) and scores the quality there.
func ChooseWithinBudget(plans []PlanSpec, in *Inputs, budget, maxBadPerGood float64) (Eval, error) {
	if budget <= 0 {
		return Eval{}, fmt.Errorf("optimizer: time budget must be positive")
	}
	best := Eval{}
	found := false
	for _, plan := range plans {
		fns, _, err := planFuncs(plan, in)
		if err != nil {
			return Eval{}, err
		}
		if fns == nil {
			continue // degenerate plan (no capacity / stalled zig-zag)
		}
		// Largest effort within budget.
		tMax, err := fns.timeAt(fns.max)
		if err != nil {
			return Eval{}, err
		}
		effort := fns.max
		if tMax > budget {
			lo, hi := 1, fns.max
			for lo < hi {
				mid := (lo + hi + 1) / 2
				tm, err := fns.timeAt(mid)
				if err != nil {
					return Eval{}, err
				}
				if tm <= budget {
					lo = mid
				} else {
					hi = mid - 1
				}
			}
			effort = lo
			if tm, err := fns.timeAt(effort); err != nil || tm > budget {
				continue // even the smallest effort overshoots
			}
		}
		q, err := fns.quality(effort)
		if err != nil {
			return Eval{}, err
		}
		if maxBadPerGood > 0 && q.Good > 0 && q.Bad > maxBadPerGood*q.Good {
			continue
		}
		if q.Good > best.Quality.Good {
			tm, err := fns.timeAt(effort)
			if err != nil {
				return Eval{}, err
			}
			best = Eval{Plan: plan, Feasible: true, Effort: fns.effortPair(effort), Quality: q, Time: tm}
			found = true
		}
	}
	if !found {
		return Eval{}, fmt.Errorf("optimizer: no plan fits time budget %.0f", budget)
	}
	return best, nil
}
