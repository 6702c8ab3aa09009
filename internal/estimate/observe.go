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
	x := st.R1
	if i == 1 {
		x = st.R2
	}
	return Observation{
		D:             numDocs,
		DocsProcessed: st.DocsProcessed[i],
		YieldDocs:     st.YieldDocs[i],
		Counts:        x.Counts(),
		// Read after the counts, so every counted ID has its name.
		Names:          x.Dict().Values().Names(),
		EmissionHist:   append([]int(nil), st.EmissionHist[i]...),
		TP:             tp,
		FP:             fp,
		BadInGoodPrior: badInGoodPrior,
	}
}

// EstimateOverlaps numerically derives the join-specific overlap
// cardinalities (Agg, Agb, Abg, Abb) from two sides' value counts (their
// Observation.Counts) and their fitted parameters (§VI): the observed
// value-set overlap is scaled up by the per-class observation
// probabilities, and the total is split across classes under a
// class-independence assumption using the estimated good/bad value shares.
func EstimateOverlaps(counts1, counts2 []int, e1, e2 *Estimated) model.Overlaps {
	obsOverlap := observedOverlap(counts1, counts2)
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

// observedOverlap counts the values both count slices observed.
func observedOverlap(counts1, counts2 []int) int {
	n := 0
	for v, c1 := range counts1[:min(len(counts1), len(counts2))] {
		if c1 > 0 && counts2[v] > 0 {
			n++
		}
	}
	return n
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
// not depend on how the values were numbered.
func PairSplit(obs1, obs2 Observation, e1, e2 *Estimated) (good, bad float64) {
	return splitPairs(obs1.Counts, obs2.Counts, posteriorOf(obs1, e1), posteriorOf(obs2, e2))
}

// EstimatePairSplit is Estimate on both observations followed by PairSplit
// of the two fits, bit for bit, with each observation fitted once: each
// side's posterior reads the binomial tables and the winning laws of its
// own fit. Only the mixture is fitted, as the split reads nothing else.
// When a side cannot be fitted, it returns the error Estimate gives for the
// first such side, and that side's index.
func EstimatePairSplit(obs1, obs2 Observation) (good, bad float64, failed int, err error) {
	var post [2]posterior
	for i, obs := range [2]Observation{obs1, obs2} {
		h := countHist(obs.Counts)
		if err := checkFit(obs, h.n); err != nil {
			return 0, 0, i, err
		}
		var t fitTables
		t.fill(obs)
		best, plG, plB := t.searchMixture(obs, &h)
		post[i].set(best.GoodShare, plG, plB, &t)
	}
	good, bad = splitPairs(obs1.Counts, obs2.Counts, &post[0], &post[1])
	return good, bad, 0, nil
}

// splitPairs sums the posterior good and bad pair mass of the values both
// count slices observed, one term per (c1, c2) count pair in ascending
// order.
func splitPairs(counts1, counts2 []int, post1, post2 *posterior) (good, bad float64) {
	for _, k := range tallyPairs(counts1, counts2) {
		pairs := float64(k.n * k.c1 * k.c2)
		pg := post1.good(k.c1) * post2.good(k.c2)
		good += pairs * pg
		bad += pairs * (1 - pg)
	}
	return good, bad
}

// pairTally counts the n values observed c1 times on one side and c2
// times on the other.
type pairTally struct{ c1, c2, n int }

// tallyPairs tallies the values observed on both sides per (c1, c2) count
// pair, in ascending pair order.
func tallyPairs(counts1, counts2 []int) []pairTally {
	type countPair struct{ c1, c2 int }
	shared := make(map[countPair]int)
	for v, c1 := range counts1[:min(len(counts1), len(counts2))] {
		if c2 := counts2[v]; c1 > 0 && c2 > 0 {
			shared[countPair{c1, c2}]++
		}
	}
	out := make([]pairTally, 0, len(shared))
	for k, n := range shared {
		out = append(out, pairTally{k.c1, k.c2, n})
	}
	slices.SortFunc(out, func(a, b pairTally) int {
		return cmp.Or(cmp.Compare(a.c1, b.c1), cmp.Compare(a.c2, b.c2))
	})
	return out
}

// posterior is P(value is good | observed count k) under a fitted mixture
// at an observation's coverage: the mixture weight and the fitted laws'
// truncated observed-count PMFs.
type posterior struct {
	w        float64
	pkG, pkB [maxFreq + 1]float64
}

// posteriorOf builds the posterior of the fit e of obs from scratch.
func posteriorOf(obs Observation, e *Estimated) *posterior {
	var t fitTables
	t.fill(obs)
	p := &posterior{}
	p.set(e.GoodShare, stat.MustPowerLaw(e.AlphaGood, maxFreq), stat.MustPowerLaw(e.AlphaBad, maxFreq), &t)
	return p
}

// set makes p the posterior of mixture weight w over the laws plG and plB,
// observed at the coverages t was filled for.
func (p *posterior) set(w float64, plG, plB *stat.PowerLaw, t *fitTables) {
	p.w = w
	truncatedObsPMF(plG, &t.g, &p.pkG)
	truncatedObsPMF(plB, &t.b, &p.pkB)
}

// good returns P(good | k).
func (p *posterior) good(k int) float64 {
	if k > maxFreq {
		k = maxFreq
	}
	num := p.w * pk(p.pkG[:], k)
	den := num + (1-p.w)*pk(p.pkB[:], k)
	if den <= 0 {
		return p.w
	}
	return num / den
}
