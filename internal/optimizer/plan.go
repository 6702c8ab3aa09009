// Package optimizer implements the quality-aware join optimizer of §VI: it
// enumerates the join execution plan space ⟨E1⟨θ1⟩, E2⟨θ2⟩, X1, X2, JN⟩,
// uses the analytical models to find, for every plan, the minimal effort
// that meets a user's quality requirement (τg good tuples, at most τb bad
// tuples), predicts each plan's execution time, and picks the fastest
// feasible plan. An adaptive driver re-estimates the database-specific
// parameters on the fly and switches plans when the estimates say a switch
// is worthwhile.
package optimizer

import (
	"fmt"

	"joinopt/internal/model"
	"joinopt/internal/retrieval"
)

// Algorithm names a join algorithm.
type Algorithm string

// The join algorithms of §IV.
const (
	IDJN Algorithm = "IDJN"
	OIJN Algorithm = "OIJN"
	ZGJN Algorithm = "ZGJN"
)

// PlanSpec identifies one join execution plan (Definition 3.1).
type PlanSpec struct {
	JN    Algorithm
	Theta [2]float64

	// X are the document retrieval strategies. IDJN uses both; OIJN uses
	// X[OuterIdx] for the outer relation (the inner side is reached by
	// value queries); ZGJN uses neither.
	X [2]retrieval.Kind

	// OuterIdx selects OIJN's outer relation (0 or 1).
	OuterIdx int
}

// String renders the plan compactly, e.g. "OIJN θ=(0.8,0.4) outer=R1/AQG".
func (p PlanSpec) String() string {
	switch p.JN {
	case OIJN:
		return fmt.Sprintf("OIJN θ=(%.1f,%.1f) outer=R%d/%s", p.Theta[0], p.Theta[1], p.OuterIdx+1, p.X[p.OuterIdx])
	case ZGJN:
		return fmt.Sprintf("ZGJN θ=(%.1f,%.1f)", p.Theta[0], p.Theta[1])
	default:
		return fmt.Sprintf("IDJN θ=(%.1f,%.1f) X=(%s,%s)", p.Theta[0], p.Theta[1], p.X[0], p.X[1])
	}
}

// Requirement is the user's quality preference (§III-C): at least TauG good
// join tuples with at most TauB bad join tuples.
type Requirement struct {
	TauG int
	TauB int
}

// Enumerate returns the full plan space over the given knob settings:
// IDJN with every strategy pair, OIJN with both orientations and every
// outer strategy, and ZGJN — each crossed with every θ pair.
func Enumerate(thetas []float64) []PlanSpec {
	kinds := []retrieval.Kind{retrieval.SC, retrieval.FS, retrieval.AQG}
	var out []PlanSpec
	for _, t1 := range thetas {
		for _, t2 := range thetas {
			th := [2]float64{t1, t2}
			for _, x1 := range kinds {
				for _, x2 := range kinds {
					out = append(out, PlanSpec{JN: IDJN, Theta: th, X: [2]retrieval.Kind{x1, x2}})
				}
			}
			for outer := 0; outer < 2; outer++ {
				for _, x := range kinds {
					var xs [2]retrieval.Kind
					xs[outer] = x
					out = append(out, PlanSpec{JN: OIJN, Theta: th, X: xs, OuterIdx: outer})
				}
			}
			out = append(out, PlanSpec{JN: ZGJN, Theta: th})
		}
	}
	return out
}

// Inputs are the model parameters the optimizer evaluates plans against:
// per-side, per-θ relation parameters plus the join-specific quantities.
type Inputs struct {
	// Thetas are the available knob settings; P[side][k] are the parameters
	// of side at Thetas[k].
	Thetas []float64
	P      [2][]*model.RelationParams

	Ov    model.Overlaps
	Costs [2]model.Costs

	// CasualHits and Mentioned are the value-query side parameters of each
	// database (see model.OIJNModel and model.ZGJNModel).
	CasualHits [2]float64
	Mentioned  [2]int

	// SeedCount is the number of seed queries available to ZGJN.
	SeedCount int

	// RobustSigma, when positive, makes plan evaluation conservative: a
	// plan meets a requirement only if its z-sigma lower confidence bound
	// on good tuples reaches τg and its z-sigma upper bound on bad tuples
	// stays within τb (§VI's robustness checking).
	RobustSigma float64

	// RectangleRatios, when non-empty, extends IDJN evaluation beyond the
	// square traversal: each ratio r skews the per-side efforts to r·e and
	// e/r (relative to the proportional baseline), and the cheapest feasible
	// aspect wins. The paper's §IV rectangle generalization; the square
	// heuristic of §VI corresponds to the default empty list.
	RectangleRatios []float64

	// Workers bounds Choose's parallel plan-space evaluation: 0 uses one
	// worker per available CPU (runtime.GOMAXPROCS), 1 forces the sequential
	// path. Any worker count returns the identical best plan and evaluation
	// list (lowest predicted time, ties broken by plan order).
	Workers int

	// ExecWorkers is a v1 checkpoint wire field that plan search ignores:
	// execution workers overlap wall-clock work and never change a plan's
	// predicted time or quality.
	ExecWorkers int

	// CacheHitRate is the expected extraction-cache hit rate per side in
	// [0, 1]; a hit makes that document's extraction free. Zero (the
	// default) models a cold or absent cache.
	CacheHitRate [2]float64
}

// effCosts returns side's §V cost parameters as plan-time prediction sees
// them: the expected extraction charge shrinks by the anticipated cache hit
// rate. Executed runs still charge the full tE per cache miss.
func (in *Inputs) effCosts(side int) model.Costs {
	c := in.Costs[side]
	if hr := in.CacheHitRate[side]; hr > 0 {
		c.TE *= 1 - min(hr, 1)
	}
	return c
}

// params resolves the parameter set of side at theta.
func (in *Inputs) params(side int, theta float64) (*model.RelationParams, error) {
	for k, t := range in.Thetas {
		if t == theta {
			if side < 0 || side > 1 || k >= len(in.P[side]) || in.P[side][k] == nil {
				return nil, fmt.Errorf("optimizer: missing parameters for side %d at θ=%.2f", side+1, theta)
			}
			return in.P[side][k], nil
		}
	}
	return nil, fmt.Errorf("optimizer: unknown θ=%.2f", theta)
}

// maxEffort is the largest meaningful effort of a strategy on a side:
// the database size for scans, the learned query count for AQG.
func maxEffort(p *model.RelationParams, x retrieval.Kind) int {
	if x == retrieval.AQG {
		return len(p.AQG)
	}
	return p.D
}
