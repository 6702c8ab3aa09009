package estimate

// What the estimator reads of an observation, for the external tests to
// check against string-keyed oracles.

// MaxFreq caps the modeled frequency support.
const MaxFreq = maxFreq

// Histogram is a count histogram as the estimator fits it: Hist[k] values
// observed k times, counts above MaxFreq capped into Hist[MaxFreq], and N
// observed values.
type Histogram struct {
	Hist [MaxFreq + 1]int
	N    int
}

// CountHist is the histogram Estimate fits to counts.
func CountHist(counts []int) Histogram {
	h := countHist(counts)
	return Histogram{h.hist, h.n}
}

// CrossValidationHalves are the two halves CrossValidate fits.
func CrossValidationHalves(obs Observation) ([2]Histogram, error) {
	halves, err := splitHalves(obs)
	return [2]Histogram{{halves[0].hist, halves[0].n}, {halves[1].hist, halves[1].n}}, err
}

// ObservedOverlap is the observed overlap EstimateOverlaps scales up.
func ObservedOverlap(counts1, counts2 []int) int { return observedOverlap(counts1, counts2) }

// PairTally is PairSplit's tally of the jointly observed values: one
// {c1, c2, n} per count pair, in ascending pair order.
func PairTally(counts1, counts2 []int) [][3]int {
	var out [][3]int
	for _, k := range tallyPairs(counts1, counts2) {
		out = append(out, [3]int{k.c1, k.c2, k.n})
	}
	return out
}
