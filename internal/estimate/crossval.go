package estimate

import (
	"fmt"
	"hash/fnv"
	"math"
)

// Cross-validation robustness checking (§VI: the optimizer proceeds "while
// checking for robustness using cross-validation"): the observed values are
// split deterministically into two halves, the MLE runs on each half, and
// the divergence of the fitted parameters measures how trustworthy the
// estimates are. A small window with unstable estimates diverges; the
// adaptive optimizer extends its pilot until the fit stabilizes.

// CrossValidate estimates on two deterministic halves of the observation's
// value set and returns a divergence score in [0, ∞): 0 means the halves
// agree perfectly; values above ~0.4 indicate an unreliable fit. The score
// averages the relative disagreement of the fitted exponent, the mixture
// weight, and the (half-)population sizes.
//
// The halves share everything but their values with obs, so both fit with
// binomial tables filled once, at obs's coverages.
func CrossValidate(obs Observation) (float64, error) {
	halves, err := splitHalves(obs)
	if err != nil {
		return 0, err
	}
	for i := range halves {
		if err := checkFit(obs, halves[i].n); err != nil {
			return 0, fmt.Errorf("estimate: cross-validation half %d: %w", i+1, err)
		}
	}
	var t fitTables
	t.fill(obs)
	var ests [2]*Estimated
	for i := range ests {
		ests[i] = t.fit(obs, &halves[i])
	}
	relDiff := func(a, b float64) float64 {
		m := (math.Abs(a) + math.Abs(b)) / 2
		if m == 0 {
			return 0
		}
		return math.Abs(a-b) / m
	}
	d := relDiff(ests[0].AlphaGood, ests[1].AlphaGood)
	d += relDiff(ests[0].GoodShare, ests[1].GoodShare)
	d += relDiff(float64(ests[0].Params.Ag+ests[0].Params.Ab), float64(ests[1].Params.Ag+ests[1].Params.Ab))
	return d / 3, nil
}

// splitHalves tallies obs's observed values into the two cross-validation
// halves by the fnv-32a parity of their names, so the split does not
// depend on how the values were numbered.
func splitHalves(obs Observation) ([2]histogram, error) {
	var halves [2]histogram
	if len(obs.Names) < len(obs.Counts) {
		return halves, fmt.Errorf("estimate: cross-validation needs the names of %d value IDs, have %d", len(obs.Counts), len(obs.Names))
	}
	h := fnv.New32a()
	for v, c := range obs.Counts {
		if c < 1 {
			continue
		}
		h.Reset()
		h.Write([]byte(obs.Names[v]))
		halves[h.Sum32()&1].add(c)
	}
	return halves, nil
}
