package model

import (
	"math"
	"testing"

	"joinopt/internal/stat"
)

func TestOccMomentsBinomial(t *testing.T) {
	// E[occ|f] = 3, f = 6 → p = 0.5 → E[occ²] = Var + mean² = 1.5 + 9.
	e := LinearOcc(0.5)
	m1, m2 := occMoments(e, 6)
	if math.Abs(m1-3) > 1e-12 || math.Abs(m2-10.5) > 1e-12 {
		t.Errorf("moments %v, %v, want 3, 10.5", m1, m2)
	}
	// Degenerate frequency.
	m1, m2 = occMoments(e, 0)
	if m1 != 0 || m2 != 0 {
		t.Errorf("zero frequency moments %v, %v", m1, m2)
	}
}

func TestComposeDistMeanMatchesCompose(t *testing.T) {
	p1 := simpleParams()
	p2 := simpleParams()
	ov := Overlaps{Agg: 40, Agb: 15, Abg: 15, Abb: 8}
	e1g, e1b := LinearOcc(0.4), LinearOcc(0.15)
	e2g, e2b := LinearOcc(0.5), LinearOcc(0.2)
	point := Compose(ov, p1, p2, e1g, e1b, e2g, e2b, false)
	dist := ComposeDist(ov, p1, p2, e1g, e1b, e2g, e2b)
	if math.Abs(point.Good-dist.Good) > 1e-9 || math.Abs(point.Bad-dist.Bad) > 1e-9 {
		t.Errorf("means diverge: point %+v dist %+v", point, dist.Quality)
	}
	if dist.VarGood <= 0 || dist.VarBad <= 0 {
		t.Errorf("variances must be positive: %+v", dist)
	}
}

// TestComposeDistMonteCarlo validates the variance formula by simulating
// the generative process: per value, a power-law frequency and binomial
// observation on each side, pairs = product.
func TestComposeDistMonteCarlo(t *testing.T) {
	pl := stat.MustPowerLaw(2.0, 10)
	pmf := pl.PMFSlice()
	p1 := &RelationParams{GoodFreq: pmf, BadFreq: pmf}
	p2 := &RelationParams{GoodFreq: pmf, BadFreq: pmf}
	ov := Overlaps{Agg: 60}
	c1, c2 := 0.55, 0.4
	dist := ComposeDist(ov, p1, p2, LinearOcc(c1), LinearOcc(0), LinearOcc(c2), LinearOcc(0))

	r := stat.NewRNG(31)
	const trials = 4000
	var sum, sumSq float64
	for trial := 0; trial < trials; trial++ {
		total := 0
		for v := 0; v < ov.Agg; v++ {
			g1 := pl.Sample(r)
			g2 := pl.Sample(r)
			total += r.Binomial(g1, c1) * r.Binomial(g2, c2)
		}
		sum += float64(total)
		sumSq += float64(total) * float64(total)
	}
	mean := sum / trials
	variance := sumSq/trials - mean*mean
	if math.Abs(mean-dist.Good) > 0.05*dist.Good {
		t.Errorf("Monte Carlo mean %.1f vs model %.1f", mean, dist.Good)
	}
	if math.Abs(variance-dist.VarGood) > 0.15*dist.VarGood {
		t.Errorf("Monte Carlo variance %.1f vs model %.1f", variance, dist.VarGood)
	}
}

func TestQualityDistBounds(t *testing.T) {
	q := QualityDist{Quality: Quality{Good: 100, Bad: 50}, VarGood: 25, VarBad: 16}
	if got := q.GoodLCB(2); math.Abs(got-90) > 1e-12 {
		t.Errorf("LCB %v, want 90", got)
	}
	if got := q.BadUCB(2); math.Abs(got-58) > 1e-12 {
		t.Errorf("UCB %v, want 58", got)
	}
	// z = 0 degenerates to the point estimate.
	if q.GoodLCB(0) != 100 || q.BadUCB(0) != 50 {
		t.Errorf("z=0 bounds (%v, %v), want the point estimate (100, 50)", q.GoodLCB(0), q.BadUCB(0))
	}
}

func TestEstimateDistConsistency(t *testing.T) {
	m := &IDJNModel{
		P1: simpleParams(), P2: simpleParams(),
		X1: "SC", X2: "SC",
		Ov: Overlaps{Agg: 50, Agb: 20, Abg: 20, Abb: 10},
	}
	point, err := m.Estimate(500, 500)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := m.EstimateDist(500, 500)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(point.Good-dist.Good) > 1e-9 {
		t.Errorf("EstimateDist mean %v != Estimate %v", dist.Good, point.Good)
	}
	if dist.GoodLCB(1) >= dist.Good {
		t.Error("LCB must lie below the mean")
	}
}

func TestVarianceShrinksRelativeWithScale(t *testing.T) {
	// Coefficient of variation falls as the overlap population grows.
	p1, p2 := simpleParams(), simpleParams()
	cv := func(agg int) float64 {
		d := ComposeDist(Overlaps{Agg: agg}, p1, p2,
			LinearOcc(0.4), LinearOcc(0), LinearOcc(0.4), LinearOcc(0))
		return math.Sqrt(d.VarGood) / d.Good
	}
	if cv(400) >= cv(25) {
		t.Errorf("CV should shrink with Agg: %v vs %v", cv(400), cv(25))
	}
}
