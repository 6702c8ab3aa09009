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
	"joinopt/internal/pipeline"
	"joinopt/internal/retrieval"
	"joinopt/internal/shard"
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

	// ExecWorkers is the pipelined execution worker count the chosen plan
	// will run under (0/1 = sequential). Prediction only: the model divides
	// the per-document extraction charge by the overlap the pool actually
	// delivers (pipeline.EffectiveOverlap — Amdahl's law over the measured
	// serial fraction, not the raw worker count). Executed cost accounting
	// is unaffected.
	ExecWorkers int

	// CacheHitRate is the expected extraction-cache hit rate per side in
	// [0, 1]; a hit makes that document's extraction free. Zero (the
	// default) models a cold or absent cache. Set before the first Evaluate
	// or Choose call — plan evaluations are memoized on first use.
	CacheHitRate [2]float64

	// Shards is the corpus shard count the chosen plan will execute under
	// (0/1 = unsharded). The cost model is additive over documents, hence
	// over shards: per-shard costs sum back to the unsharded total, and
	// tp/fp and quality composition are unchanged. What sharding buys is
	// wall-clock overlap, so prediction divides the per-document scan and
	// extraction charges by shard.EffectiveSpeedup — the scaling curve
	// measured from the sharded benchmark, not the ideal 1/N — and models
	// any remaining per-shard worker pool on top (WorkersPerShard). The json
	// tag keeps unsharded checkpoints byte-identical to the v1 wire format.
	Shards int `json:"Shards,omitempty"`

	// memo caches derived model state (parameter lookups, plan closures,
	// quality/time points) across Evaluate and Choose calls; see memo.go.
	// It attaches lazily, so fresh Inputs always start with a fresh cache.
	memo *planMemo
}

// params resolves the parameter set of side at theta through the memo.
func (in *Inputs) params(side int, theta float64) (*model.RelationParams, error) {
	return in.cachedParams(side, theta)
}

// effCosts returns side's cost parameters as plan-time prediction should
// see them (see effectiveCosts).
func (in *Inputs) effCosts(side int) model.Costs {
	return effectiveCosts(in.Costs[side], in.CacheHitRate[side], in.ExecWorkers, in.Shards)
}

// effectiveCosts adjusts costs for pipelined, possibly sharded execution:
// the expected extraction charge shrinks by the anticipated cache hit rate,
// and by the overlap the worker pool actually delivers
// (pipeline.EffectiveOverlap, the Amdahl curve measured on the batched
// engine, not the raw worker count). Under sharding, retrieval and
// extraction additionally divide by the measured shard-scaling curve
// (shard.EffectiveSpeedup) with the worker budget split per shard —
// per-shard costs still sum to the unsharded total; only predicted elapsed
// time shrinks. Executed runs still charge the full tE per cache miss —
// this adjustment only sharpens predictions. The binary and n-ary
// optimizers share it.
func effectiveCosts(c model.Costs, hitRate float64, execWorkers, shards int) model.Costs {
	if hitRate > 0 {
		if hitRate > 1 {
			hitRate = 1
		}
		c.TE *= 1 - hitRate
	}
	if shards > 1 {
		f := shard.EffectiveSpeedup(shards)
		c.TR /= f
		c.TE /= f
		if wps := shard.WorkersPerShard(execWorkers, shards); wps > 1 {
			c.TE /= pipeline.EffectiveOverlap(wps)
		}
	} else if execWorkers > 1 {
		c.TE /= pipeline.EffectiveOverlap(execWorkers)
	}
	return c
}

// lookupParams is the uncached resolution behind params.
func (in *Inputs) lookupParams(side int, theta float64) (*model.RelationParams, error) {
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
