// Package estimate implements the on-the-fly parameter estimation of §VI:
// maximum-likelihood inference of the database-specific model parameters
// (|Dg|, |Db|, |Ag|, |Ab|, and the power-law value-frequency exponents) from
// what a running join execution has observed — the label-free occurrence
// counts s(a) of the extracted values and the per-document emission
// histogram. No tuple verification is used: the likelihood is a mixture over
// the good and bad value populations and the estimator derives a
// probabilistic split, exactly as the paper prescribes.
//
// The retrieval-strategy parameters (classifier rates, query statistics) and
// the IE-system rates tp(θ)/fp(θ) are characterized offline on training
// data; the estimator takes them as known inputs.
package estimate

import (
	"fmt"
	"math"

	"joinopt/internal/model"
	"joinopt/internal/stat"
)

// Observation is what one side of a running execution has seen so far. The
// estimator assumes scan-style sampling over the observation window: each
// database document had (roughly) equal probability DocsProcessed/D of being
// processed. The optimizer therefore runs its estimation window with a scan
// prefix.
type Observation struct {
	D             int            // |D|, known
	DocsProcessed int            // documents processed so far
	YieldDocs     int            // processed documents emitting ≥1 tuple
	ValueCounts   map[string]int // s(a): observed occurrences per value
	EmissionHist  []int          // EmissionHist[k] = processed docs emitting k tuples

	TP, FP float64 // IE-system rates at the execution's θ (known)

	// BadInGoodPrior is the assumed fraction of bad occurrences hosted in
	// good documents (not identifiable from unlabeled counts; the prior is
	// propagated into the estimated parameters).
	BadInGoodPrior float64

	// GoodSharePrior regularizes the mixture weight: with similar
	// observation coverages for good and bad values the split is weakly
	// identified, so a weak Beta-style prior (strength GoodShareWeight
	// pseudo-values) pulls the share toward this mode. Zero selects the
	// default prior (0.62, weight 0.15·n).
	GoodSharePrior  float64
	GoodShareWeight float64
}

// maxFreq caps the modeled frequency support.
const maxFreq = 30

// Estimated bundles the inferred parameters with the fitted mixture, so the
// caller can inspect the probabilistic good/bad split.
type Estimated struct {
	Params *model.RelationParams

	AlphaGood float64 // fitted power-law exponent of good value frequencies
	AlphaBad  float64
	GoodShare float64 // posterior share of observed values that are good
	LogLik    float64

	// PobsGood/PobsBad are the fitted probabilities that a good/bad value
	// is observed at all in the window; the overlap estimator reuses them.
	PobsGood float64
	PobsBad  float64
}

// Estimate infers the database-specific parameters from an observation. It
// returns an error when the observation is too thin to fit (fewer than 10
// observed values or no processed documents).
func Estimate(obs Observation) (*Estimated, error) {
	if obs.D <= 0 || obs.DocsProcessed <= 0 {
		return nil, fmt.Errorf("estimate: empty observation window")
	}
	if len(obs.ValueCounts) < 10 {
		return nil, fmt.Errorf("estimate: only %d observed values; need at least 10", len(obs.ValueCounts))
	}
	if obs.TP <= 0 {
		return nil, fmt.Errorf("estimate: tp must be positive")
	}

	cg, cb := coverages(obs)
	hist := countHist(obs.ValueCounts)

	// Grid MLE over (alpha, goodShare) of the truncated mixture likelihood
	// of the observed occurrence histogram. The bad exponent is tied to the
	// good one with a fixed offset (bad value frequencies are slightly
	// steeper), and a weak Beta-style prior regularizes the mixture weight:
	// with similar coverages cg ≈ cb the weight is only weakly identified
	// by the data.
	wMode := obs.GoodSharePrior
	if wMode <= 0 {
		wMode = 0.62
	}
	wWeight := obs.GoodShareWeight
	if wWeight <= 0 {
		wWeight = 0.15 * float64(len(obs.ValueCounts))
	}
	best := &Estimated{LogLik: math.Inf(-1)}
	var bestPt gridPoint
	var bestPobsG, bestPobsB float64
	var bnmG, bnmB binomialTable
	bnmG.fill(cg)
	bnmB.fill(cb)
	// The weight prior does not depend on the exponent, so each grid
	// weight's term is computed once per call.
	var prior [len(shareGrid)]float64
	for i, sp := range shareGrid {
		prior[i] = wWeight * (wMode*sp.logW + (1-wMode)*sp.log1mW)
	}
	var pkG, pkB [maxFreq + 1]float64
	for _, pt := range exponentGrid {
		pobsG := truncatedObsPMF(pt.good, &bnmG, &pkG)
		pobsB := truncatedObsPMF(pt.bad, &bnmB, &pkB)
		for i, sp := range shareGrid {
			w := sp.w
			ll := prior[i]
			for k := 1; k < len(hist); k++ {
				n := hist[k]
				if n == 0 {
					continue
				}
				p := w*pkG[k] + (1-w)*pkB[k]
				if p <= 0 {
					p = 1e-12
				}
				ll += float64(n) * math.Log(p)
			}
			if ll > best.LogLik {
				best.LogLik = ll
				best.AlphaGood, best.AlphaBad, best.GoodShare = pt.good.Alpha, pt.bad.Alpha, w
				bestPt = pt
				bestPobsG, bestPobsB = pobsG, pobsB
			}
		}
	}

	nObs := float64(len(obs.ValueCounts))
	if obs.FP <= 0 {
		// With fp = 0 no bad value is ever observed; everything seen is
		// good.
		best.GoodShare = 1
	}
	best.PobsGood, best.PobsBad = bestPobsG, bestPobsB
	agCount := nObs * best.GoodShare / math.Max(bestPobsG, 1e-9)
	abCount := nObs * (1 - best.GoodShare) / math.Max(bestPobsB, 1e-9)

	// The winning grid point's laws are the ones its exponents build. No
	// finite likelihood (a NaN rate) leaves no winner and zero exponents.
	plG, plB := bestPt.good, bestPt.bad
	if plG == nil {
		plG, plB = stat.MustPowerLaw(best.AlphaGood, maxFreq), stat.MustPowerLaw(best.AlphaBad, maxFreq)
	}

	p := &model.RelationParams{
		D:             obs.D,
		Ag:            int(math.Max(math.Round(agCount), 1)),
		Ab:            int(math.Max(math.Round(abCount), 0)),
		GoodFreq:      plG.PMFSlice(),
		BadFreq:       plB.PMFSlice(),
		TP:            obs.TP,
		FP:            obs.FP,
		BadInGoodFrac: obs.BadInGoodPrior,
	}

	// Document partition: search (Dg, Db) matching the observed yield rate
	// given the estimated occurrence totals. A document with m occurrences
	// yields with probability 1 − (1 − rate)^m; mention densities follow
	// from the totals and the candidate partition.
	totGood := float64(p.Ag) * plG.Mean()
	totBad := float64(p.Ab) * plB.Mean()
	p.Dg, p.Db = fitPartition(obs, totGood, totBad)
	if p.Dg < 1 {
		p.Dg = 1
	}
	if p.Dg+p.Db > obs.D {
		p.Db = obs.D - p.Dg
	}

	p.ValuesPerDoc = estimateValuesPerDoc(obs, p)
	best.Params = p
	return best, nil
}

// badAlphaOffset ties the bad-value exponent to the good one; deceptive
// mentions of a value are rarer than correct ones, so their frequency law is
// slightly steeper.
const badAlphaOffset = 0.2

// gridPoint is one exponent of the MLE's search grid: the good-value
// frequency law and the bad-value law tied to it.
type gridPoint struct {
	good, bad *stat.PowerLaw
}

// exponentGrid is the MLE's exponent search grid. The laws depend on
// nothing but their exponents, so the grid is built once, at package
// initialization; the laws are read-only and shared by concurrent
// estimations.
var exponentGrid = newExponentGrid()

func newExponentGrid() []gridPoint {
	var g []gridPoint
	for a := 1.2; a <= 3.21; a += 0.2 {
		g = append(g, gridPoint{
			good: stat.MustPowerLaw(a, maxFreq),
			bad:  stat.MustPowerLaw(a+badAlphaOffset, maxFreq),
		})
	}
	return g
}

// sharePoint is one mixture weight w of the MLE's search grid, with the
// two logarithms its prior term takes.
type sharePoint struct {
	w, logW, log1mW float64
}

// shareGrid is the MLE's mixture-weight grid w = 0.20, 0.25, …, 0.95. Each
// w is accumulated by repeated addition of 0.05, which fixes its bits. Like
// the exponent grid, it is built once, at package initialization.
var shareGrid = newShareGrid()

func newShareGrid() (g [16]sharePoint) {
	i := 0
	for w := 0.20; w <= 0.951; w += 0.05 {
		g[i] = sharePoint{w: w, logW: math.Log(w), log1mW: math.Log(1 - w)}
		i++
	}
	if i != len(g) {
		panic(fmt.Sprintf("estimate: mixture-weight grid has %d points, want %d", i, len(g)))
	}
	return g
}

// binomialTable holds Bnm(g, k, c) for 1 ≤ g ≤ maxFreq and 0 ≤ k ≤ g: the
// probability that k of a value's g occurrences are observed at
// per-occurrence coverage c. No term depends on the frequency law, so one
// table serves every exponent of the grid.
type binomialTable [maxFreq + 1][maxFreq + 1]float64

// fill computes the table at coverage c. Each cell is
// stat.BinomialPMF(g, k, c) bit for bit: the same expression, with log c
// and log(1−c) taken once per fill instead of once per cell. Degenerate
// coverages go through BinomialPMF's own branches.
func (t *binomialTable) fill(c float64) {
	lc, lq := math.Log(c), math.Log(1-c)
	for g := 1; g <= maxFreq; g++ {
		for k := 0; k <= g; k++ {
			if c <= 0 || c >= 1 {
				t[g][k] = stat.BinomialPMF(g, k, c)
			} else {
				t[g][k] = math.Exp(stat.LogChoose(g, k) + float64(k)*lc + float64(g-k)*lq)
			}
		}
	}
}

// coverages returns the per-occurrence observation coverages of good and
// bad occurrences under scan sampling: an occurrence is seen iff its
// document was processed (Dr/D) and the IE system emitted it (tp or fp).
func coverages(obs Observation) (cg, cb float64) {
	frac := float64(obs.DocsProcessed) / float64(obs.D)
	cg = obs.TP * frac
	cb = obs.FP * frac
	if cg >= 1 {
		cg = 1 - 1e-9
	}
	if cb >= 1 {
		cb = 1 - 1e-9
	}
	return cg, cb
}

// truncatedObsPMF fills pmf with the PMF of observed counts k ≥ 0 for a
// value whose frequency follows pl, observed at the coverage bnm was filled
// for, and returns the probability of being observed at all (k ≥ 1).
func truncatedObsPMF(pl *stat.PowerLaw, bnm *binomialTable, pmf *[maxFreq + 1]float64) float64 {
	*pmf = [maxFreq + 1]float64{}
	for g := 1; g <= maxFreq; g++ {
		pg := pl.PMF(g)
		if pg == 0 {
			continue
		}
		for k, b := range bnm[g][:g+1] {
			pmf[k] += pg * b
		}
	}
	pobs := 1 - pmf[0]
	if pobs <= 0 {
		return 0
	}
	// Condition on observation.
	for k := 1; k <= maxFreq; k++ {
		pmf[k] /= pobs
	}
	pmf[0] = 0
	return pobs
}

func pk(pmf []float64, k int) float64 {
	if k < 0 || k >= len(pmf) {
		return 0
	}
	return pmf[k]
}

// countHist converts value counts to a histogram hist[k] = #values with
// count k, capped at maxFreq.
func countHist(counts map[string]int) []int {
	hist := make([]int, maxFreq+1)
	for _, c := range counts {
		if c > maxFreq {
			c = maxFreq
		}
		if c >= 1 {
			hist[c]++
		}
	}
	return hist
}

// fitPartition grid-searches the document partition (Dg, Db) matching two
// observed moments of the emission process: the yield rate (documents with
// at least one emitted tuple) and the multi-emission rate (documents with at
// least two). Under Poisson thinning a good document emits Poisson(tp·λg)
// tuples with λg the good-document mention density, so the second moment
// pins down the density — and with the estimated occurrence totals fixed,
// the density pins down the partition.
func fitPartition(obs Observation, totGood, totBad float64) (dg, db int) {
	frac := float64(obs.DocsProcessed) / float64(obs.D)
	observedYield := float64(obs.YieldDocs)
	var observedTwoPlus float64
	for k := 2; k < len(obs.EmissionHist); k++ {
		observedTwoPlus += float64(obs.EmissionHist[k])
	}
	bestErr := math.Inf(1)
	phi := obs.BadInGoodPrior

	// A cell's rates are a sum of a good-document term, which depends only
	// on the Dg fraction, and a bad-document term, which depends only on
	// the Db fraction; each term is computed once per fraction.
	type docTerm struct {
		docs, lam          float64 // documents of the class and their mention density
		atLeast1, atLeast2 float64 // Pr{a document emits ≥ 1 / ≥ 2 tuples}
	}
	term := func(docs, lam, rate float64) docTerm {
		mu := rate * lam
		e := math.Exp(-mu)
		return docTerm{docs: docs, lam: lam, atLeast1: 1 - e, atLeast2: 1 - e*(1+mu)}
	}
	var badTerms []docTerm
	for dbf := 0.0; dbf <= 0.30; dbf += 0.01 {
		cDb := float64(obs.D) * dbf
		var lamB float64
		if cDb > 0 {
			lamB = (1 - phi) * totBad / cDb
		}
		badTerms = append(badTerms, term(cDb, lamB, obs.FP))
	}

	for dgf := 0.02; dgf <= 0.40; dgf += 0.01 {
		cDg := float64(obs.D) * dgf
		g := term(cDg, (totGood+phi*totBad)/cDg, obs.TP)
		for _, b := range badTerms {
			if b.docs == 0 && totBad > 0 && phi < 1 {
				continue // bad occurrences need bad docs
			}
			yield := frac * g.docs * g.atLeast1
			twoPlus := frac * g.docs * g.atLeast2
			if b.docs > 0 {
				yield += frac * b.docs * b.atLeast1
				twoPlus += frac * b.docs * b.atLeast2
			}
			err := math.Abs(yield-observedYield) + math.Abs(twoPlus-observedTwoPlus)
			// Prefer mention densities in the plausible band.
			if g.lam < 0.5 || g.lam > 6 {
				err *= 2
			}
			if b.docs > 0 && (b.lam < 0.3 || b.lam > 6) {
				err *= 1.5
			}
			if err < bestErr {
				bestErr = err
				dg, db = int(math.Round(g.docs)), int(math.Round(b.docs))
			}
		}
	}
	return dg, db
}

// estimateValuesPerDoc converts the observed emission histogram into the
// zig-zag pdk distribution over query-reachable (mentioned) documents: the
// observed k ≥ 1 shares are kept and the zero mass is the mentioned
// documents that emitted nothing.
func estimateValuesPerDoc(obs Observation, p *model.RelationParams) []float64 {
	if len(obs.EmissionHist) == 0 || obs.DocsProcessed == 0 {
		return []float64{0.5, 0.5}
	}
	frac := float64(obs.DocsProcessed) / float64(obs.D)
	mentioned := frac * float64(p.Dg+p.Db)
	out := make([]float64, len(obs.EmissionHist))
	var emitting float64
	for k := 1; k < len(obs.EmissionHist); k++ {
		out[k] = float64(obs.EmissionHist[k])
		emitting += out[k]
	}
	zero := mentioned - emitting
	if zero < 0 {
		zero = 0
	}
	out[0] = zero
	total := zero + emitting
	if total <= 0 {
		return []float64{0.5, 0.5}
	}
	for k := range out {
		out[k] /= total
	}
	return out
}
