package estimate

import (
	"math"
	"testing"

	"joinopt/internal/stat"
)

func TestEstimateErrors(t *testing.T) {
	if _, err := Estimate(Observation{}); err == nil {
		t.Error("expected error for empty observation")
	}
	few := Observation{D: 100, DocsProcessed: 10, TP: 0.8, Counts: []int{1}}
	if _, err := Estimate(few); err == nil {
		t.Error("expected error for too few values")
	}
	var counts []int
	for i := 0; i < 20; i++ {
		counts = append(counts, 1+i%3)
	}
	noTP := Observation{D: 100, DocsProcessed: 10, TP: 0, Counts: counts}
	if _, err := Estimate(noTP); err == nil {
		t.Error("expected error for tp=0")
	}
}

func TestEstimateZeroFPMeansAllGood(t *testing.T) {
	var counts []int
	r := stat.NewRNG(4)
	pl := stat.MustPowerLaw(2.0, 10)
	for i := 0; i < 80; i++ {
		counts = append(counts, pl.Sample(r))
	}
	obs := Observation{
		D: 1000, DocsProcessed: 400, YieldDocs: 90,
		Counts: counts, EmissionHist: []int{310, 60, 30},
		TP: 0.8, FP: 0, BadInGoodPrior: 0.3,
	}
	est, err := Estimate(obs)
	if err != nil {
		t.Fatal(err)
	}
	if est.GoodShare != 1 {
		t.Errorf("fp=0 should force GoodShare=1, got %v", est.GoodShare)
	}
}

func TestTruncatedObsPMFNormalized(t *testing.T) {
	pl := stat.MustPowerLaw(2.0, maxFreq)
	for _, c := range []float64{0.1, 0.5, 0.9} {
		var bnm binomialTable
		bnm.fill(c)
		var pmf [maxFreq + 1]float64
		pobs := truncatedObsPMF(pl, &bnm, &pmf)
		var sum float64
		for k := 1; k < len(pmf); k++ {
			sum += pmf[k]
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("c=%v: conditional PMF sums to %v", c, sum)
		}
		if pobs <= 0 || pobs > 1 {
			t.Errorf("c=%v: pobs %v out of range", c, pobs)
		}
	}
}

func TestCountHistCaps(t *testing.T) {
	h := countHist([]int{1, 0, 1, 100})
	if h.hist[1] != 2 {
		t.Errorf("h[1] = %d", h.hist[1])
	}
	if h.hist[maxFreq] != 1 {
		t.Error("counts beyond maxFreq must be capped into the last bin")
	}
	if h.n != 3 {
		t.Errorf("%d observed values, want 3: an ID counted zero is not observed", h.n)
	}
}
