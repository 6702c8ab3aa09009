package estimate

import (
	"cmp"
	"math"
	"slices"

	"joinopt/internal/join"
	"joinopt/internal/model"
	"joinopt/internal/stat"
)

// FromState builds an observation for side i of a running join execution.
// The IE rates are the training-time characterization at the execution's θ.
func FromState(st *join.State, i, numDocs int, tp, fp, badInGoodPrior float64) Observation {
	return Observation{
		D:              numDocs,
		DocsProcessed:  st.DocsProcessed[i],
		YieldDocs:      st.YieldDocs[i],
		ValueCounts:    st.ValueCounts(i),
		EmissionHist:   append([]int(nil), st.EmissionHist[i]...),
		TP:             tp,
		FP:             fp,
		BadInGoodPrior: badInGoodPrior,
	}
}

// EstimateOverlaps numerically derives the join-specific overlap
// cardinalities (Agg, Agb, Abg, Abb) from two sides' observations and their
// fitted parameters (§VI): the observed value-set overlap is scaled up by
// the per-class observation probabilities, and the total is split across
// classes under a class-independence assumption using the estimated
// good/bad value shares.
func EstimateOverlaps(counts1, counts2 map[string]int, e1, e2 *Estimated) model.Overlaps {
	obsOverlap := 0
	for v := range counts1 {
		if _, ok := counts2[v]; ok {
			obsOverlap++
		}
	}
	share := func(e *Estimated) (sg, sb float64) {
		total := float64(e.Params.Ag + e.Params.Ab)
		if total == 0 {
			return 1, 0
		}
		return float64(e.Params.Ag) / total, float64(e.Params.Ab) / total
	}
	sg1, sb1 := share(e1)
	sg2, sb2 := share(e2)
	// Expected observed overlap per true overlapping value.
	pObs := sg1*sg2*e1.PobsGood*e2.PobsGood +
		sg1*sb2*e1.PobsGood*e2.PobsBad +
		sb1*sg2*e1.PobsBad*e2.PobsGood +
		sb1*sb2*e1.PobsBad*e2.PobsBad
	maxTotal := math.Min(float64(e1.Params.Ag+e1.Params.Ab), float64(e2.Params.Ag+e2.Params.Ab))
	var total float64
	switch {
	case pObs <= 1e-9:
		total = 0
	case obsOverlap == 0:
		// Nothing shared observed yet — in a small window of a joint
		// extraction task this is common, not evidence of a disjoint value
		// space. Use a weak prior: a quarter of the smaller value
		// population overlaps, capped by what zero observations allow
		// (roughly 1/pObs before an overlap would likely have been seen).
		total = math.Min(0.25*maxTotal, 1/pObs)
	default:
		total = float64(obsOverlap) / pObs
	}
	if total > maxTotal {
		total = maxTotal
	}
	round := func(x float64) int { return int(math.Round(x)) }
	return model.Overlaps{
		Agg: round(total * sg1 * sg2),
		Agb: round(total * sg1 * sb2),
		Abg: round(total * sb1 * sg2),
		Abb: round(total * sb1 * sb2),
	}
}

// PairSplit estimates, without any labels, the good/bad composition of the
// current join output — the "estimated # good tuples in Rj" that the join
// algorithms' stopping conditions consult (Figures 3, 5, 7 of the paper).
// For each joined value, the fitted mixtures give the posterior probability
// that its occurrences on each side are good; a pair is good only when both
// sides are.
//
// The posterior depends on a value only through its two counts, so the
// joined values are first tallied per (c1, c2) count pair in exact integers
// and the float terms then added in ascending pair order: the result does
// not depend on map iteration order.
func PairSplit(obs1, obs2 Observation, e1, e2 *Estimated) (good, bad float64) {
	type countPair struct{ c1, c2 int }
	shared := make(map[countPair]int)
	for v, c1 := range obs1.ValueCounts {
		if c2, ok := obs2.ValueCounts[v]; ok {
			shared[countPair{c1, c2}]++
		}
	}
	keys := make([]countPair, 0, len(shared))
	for k := range shared {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b countPair) int {
		return cmp.Or(cmp.Compare(a.c1, b.c1), cmp.Compare(a.c2, b.c2))
	})
	post1 := posteriorGood(obs1, e1)
	post2 := posteriorGood(obs2, e2)
	for _, k := range keys {
		pairs := float64(shared[k] * k.c1 * k.c2)
		pg := post1(k.c1) * post2(k.c2)
		good += pairs * pg
		bad += pairs * (1 - pg)
	}
	return good, bad
}

// posteriorGood returns P(value is good | observed count k) under the
// fitted mixture at the observation's coverage.
func posteriorGood(obs Observation, e *Estimated) func(k int) float64 {
	cg, cb := coverages(obs)
	var bnmG, bnmB binomialTable
	bnmG.fill(cg)
	bnmB.fill(cb)
	pkG, _ := truncatedObsPMF(stat.MustPowerLaw(e.AlphaGood, maxFreq), &bnmG)
	pkB, _ := truncatedObsPMF(stat.MustPowerLaw(e.AlphaBad, maxFreq), &bnmB)
	w := e.GoodShare
	return func(k int) float64 {
		if k > maxFreq {
			k = maxFreq
		}
		num := w * pk(pkG, k)
		den := num + (1-w)*pk(pkB, k)
		if den <= 0 {
			return w
		}
		return num / den
	}
}
