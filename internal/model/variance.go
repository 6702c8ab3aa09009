package model

import "math"

// Variance machinery for the composition estimates, supporting the
// optimizer's robustness margin (§VI mentions checking decisions for
// robustness): instead of requiring E[good] ≥ τg, a robust optimizer
// requires E[good] − z·σ ≥ τg and E[bad] + z·σ ≤ τb.
//
// Per join value a, the observed occurrence count on side i is modeled as
// Binomial(f, e(f)/f) given frequency f — exact for the scan-style linear
// coverages and a matched-mean approximation for the query-driven ones.
// Values are independent, so variances add across the overlap classes:
//
//	Var[gr1·gr2] = E[gr1²]·E[gr2²] − (E[gr1]·E[gr2])²
//
// with E[gr²|f] = m(1−p) + m² for m = E[gr|f], p = m/f.

// occMoments returns E[occ|f] and E[occ²|f] under the binomial
// approximation for a conditional-expectation function.
func occMoments(e OccExpectation, f int) (m1, m2 float64) {
	m1 = e(f)
	if f <= 0 || m1 <= 0 {
		return m1, m1 * m1
	}
	p := m1 / float64(f)
	if p > 1 {
		p = 1
	}
	m2 = m1*(1-p) + m1*m1
	return m1, m2
}

// momentsOver integrates the first and second conditional moments over a
// frequency PMF indexed from 1.
func momentsOver(pmf []float64, e OccExpectation) (m1, m2 float64) {
	for i, pr := range pmf {
		if pr == 0 {
			continue
		}
		a, b := occMoments(e, i+1)
		m1 += pr * a
		m2 += pr * b
	}
	return m1, m2
}

// QualityDist is a quality estimate with variances, for robustness margins.
type QualityDist struct {
	Quality
	VarGood float64
	VarBad  float64
}

// GoodLCB returns the z-sigma lower confidence bound on the good count.
func (q QualityDist) GoodLCB(z float64) float64 {
	return q.Good - z*math.Sqrt(math.Max(q.VarGood, 0))
}

// BadUCB returns the z-sigma upper confidence bound on the bad count.
func (q QualityDist) BadUCB(z float64) float64 {
	return q.Bad + z*math.Sqrt(math.Max(q.VarBad, 0))
}

// ComposeDist runs the general composition scheme returning variances
// alongside the expectations. It uses the independence coupling (variance
// under the correlated coupling is not defined by the paper's sketch).
func ComposeDist(ov Overlaps, p1, p2 *RelationParams, e1g, e1b, e2g, e2b OccExpectation) QualityDist {
	g1m1, g1m2 := momentsOver(p1.GoodFreq, e1g)
	b1m1, b1m2 := momentsOver(p1.BadFreq, e1b)
	g2m1, g2m2 := momentsOver(p2.GoodFreq, e2g)
	b2m1, b2m2 := momentsOver(p2.BadFreq, e2b)

	pairVar := func(n int, a1, a2, s1, s2 float64) (mean, variance float64) {
		mean = float64(n) * a1 * a2
		variance = float64(n) * (s1*s2 - a1*a1*a2*a2)
		if variance < 0 {
			variance = 0
		}
		return mean, variance
	}

	var q QualityDist
	var v float64
	q.Good, q.VarGood = pairVar(ov.Agg, g1m1, g2m1, g1m2, g2m2)

	m, v := pairVar(ov.Agb, g1m1, b2m1, g1m2, b2m2)
	q.Bad += m
	q.VarBad += v
	m, v = pairVar(ov.Abg, b1m1, g2m1, b1m2, g2m2)
	q.Bad += m
	q.VarBad += v
	m, v = pairVar(ov.Abb, b1m1, b2m1, b1m2, b2m2)
	q.Bad += m
	q.VarBad += v
	return q
}

// EstimateDist is Estimate with variances, for robust plan evaluation.
func (m *IDJNModel) EstimateDist(effort1, effort2 int) (QualityDist, error) {
	proc1, err := m.P1.ProcessedAfter(m.X1, effort1)
	if err != nil {
		return QualityDist{}, err
	}
	proc2, err := m.P2.ProcessedAfter(m.X2, effort2)
	if err != nil {
		return QualityDist{}, err
	}
	c1 := m.P1.CoverageOf(proc1)
	c2 := m.P2.CoverageOf(proc2)
	return ComposeDist(m.Ov, m.P1, m.P2,
		LinearOcc(c1.CG), LinearOcc(c1.CB),
		LinearOcc(c2.CG), LinearOcc(c2.CB)), nil
}

// EstimateDist is Estimate with variances for the outer/inner join; the
// inner side uses the binomial matched-mean approximation.
func (m *OIJNModel) EstimateDist(effortOuter int) (QualityDist, error) {
	po, pi, ov := m.orient()
	procO, err := po.ProcessedAfter(m.XOuter, effortOuter)
	if err != nil {
		return QualityDist{}, err
	}
	covO := po.CoverageOf(procO)
	eff := m.effort(covO)
	innerGood := func(f int) float64 {
		d := directCov(f, pi.TopK, pi.QPrec)
		return pi.TP * float64(f) * (d + (1-d)*eff.JgRest)
	}
	innerBad := func(f int) float64 {
		d := directCov(f, pi.TopK, pi.QPrec)
		rest := pi.BadInGoodFrac*eff.JgRest + (1-pi.BadInGoodFrac)*eff.JbRest
		return pi.FP * float64(f) * (d + (1-d)*rest)
	}
	return ComposeDist(ov, po, pi,
		LinearOcc(covO.CG), LinearOcc(covO.CB), innerGood, innerBad), nil
}

// EstimateDistAtDocs is EstimateAtDocs with variances for the zig-zag join.
func (m *ZGJNModel) EstimateDistAtDocs(d1, d2 int) (QualityDist, error) {
	cov := func(p *RelationParams, side, d int) Coverage {
		M := float64(m.mentioned(side))
		frac := clampF(float64(d)/M, 0, 1)
		return p.CoverageOf(Processed{Jg: float64(p.Dg) * frac, Jb: float64(p.Db) * frac})
	}
	c1 := cov(m.P1, 0, d1)
	c2 := cov(m.P2, 1, d2)
	return ComposeDist(m.Ov, m.P1, m.P2,
		LinearOcc(c1.CG), LinearOcc(c1.CB),
		LinearOcc(c2.CG), LinearOcc(c2.CB)), nil
}
