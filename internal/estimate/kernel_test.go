package estimate

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"joinopt/internal/stat"
)

// The estimator kernel shares one binomial table per coverage across the
// exponent grid and hoists the partition fit's exponentials out of its
// inner loop. These tests keep the straightforward per-table and per-cell
// forms as oracles and require the kernel to reproduce them bit for bit.

// oracleTruncatedObsPMF builds the power law and every binomial term of one
// table from scratch.
func oracleTruncatedObsPMF(alpha, c float64) ([]float64, float64) {
	pl := stat.MustPowerLaw(alpha, maxFreq)
	pmf := make([]float64, maxFreq+1)
	for g := 1; g <= maxFreq; g++ {
		pg := pl.PMF(g)
		if pg == 0 {
			continue
		}
		for k := 0; k <= g; k++ {
			pmf[k] += pg * stat.BinomialPMF(g, k, c)
		}
	}
	pobs := 1 - pmf[0]
	if pobs <= 0 {
		return pmf, 0
	}
	for k := 1; k <= maxFreq; k++ {
		pmf[k] /= pobs
	}
	pmf[0] = 0
	return pmf, pobs
}

// oracleFitPartition evaluates the yield and multi-emission rates in every
// cell of the (Dg, Db) grid.
func oracleFitPartition(obs Observation, totGood, totBad float64) (dg, db int) {
	frac := float64(obs.DocsProcessed) / float64(obs.D)
	observedYield := float64(obs.YieldDocs)
	var observedTwoPlus float64
	for k := 2; k < len(obs.EmissionHist); k++ {
		observedTwoPlus += float64(obs.EmissionHist[k])
	}
	bestErr := math.Inf(1)
	phi := obs.BadInGoodPrior

	atLeast1 := func(mu float64) float64 { return 1 - math.Exp(-mu) }
	atLeast2 := func(mu float64) float64 { return 1 - math.Exp(-mu)*(1+mu) }

	for dgf := 0.02; dgf <= 0.40; dgf += 0.01 {
		cDg := float64(obs.D) * dgf
		lamG := (totGood + phi*totBad) / cDg
		for dbf := 0.0; dbf <= 0.30; dbf += 0.01 {
			cDb := float64(obs.D) * dbf
			var lamB float64
			if cDb > 0 {
				lamB = (1 - phi) * totBad / cDb
			} else if totBad > 0 && phi < 1 {
				continue
			}
			muG, muB := obs.TP*lamG, obs.FP*lamB
			yield := frac * cDg * atLeast1(muG)
			twoPlus := frac * cDg * atLeast2(muG)
			if cDb > 0 {
				yield += frac * cDb * atLeast1(muB)
				twoPlus += frac * cDb * atLeast2(muB)
			}
			err := math.Abs(yield-observedYield) + math.Abs(twoPlus-observedTwoPlus)
			if lamG < 0.5 || lamG > 6 {
				err *= 2
			}
			if cDb > 0 && (lamB < 0.3 || lamB > 6) {
				err *= 1.5
			}
			if err < bestErr {
				bestErr = err
				dg, db = int(math.Round(cDg)), int(math.Round(cDb))
			}
		}
	}
	return dg, db
}

// coverageSweep spans the coverages Estimate and PairSplit can pass: fp = 0
// gives c = 0, a tiny window gives c near 0, and a full window is clamped
// to 1 − 1e-9.
var coverageSweep = []float64{0, 1e-6, 0.001, 0.013, 0.05, 0.1, 0.2, 0.25, 0.37, 0.5, 0.64, 0.75, 0.9, 0.99, 1 - 1e-9}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestBinomialTableMatchesPMF: every cell of a filled table is
// stat.BinomialPMF's value bit for bit, over the coverage sweep and the
// degenerate coverages its own branches handle.
func TestBinomialTableMatchesPMF(t *testing.T) {
	for _, c := range append([]float64{-0.5, 1, 1.5}, coverageSweep...) {
		var bnm binomialTable
		bnm.fill(c)
		for g := 1; g <= maxFreq; g++ {
			for k := 0; k <= g; k++ {
				if want := stat.BinomialPMF(g, k, c); !sameBits(bnm[g][k], want) {
					t.Fatalf("c=%v: Bnm(%d, %d) = %v, BinomialPMF %v", c, g, k, bnm[g][k], want)
				}
			}
		}
	}
}

// TestTruncatedObsPMFMatchesOracle: over the whole exponent grid, good and
// bad laws alike, and the coverage sweep, the shared-table kernel returns
// the oracle's PMF and observation probability bit for bit. It also pins
// the grid's exponents to the search loop they replace.
func TestTruncatedObsPMFMatchesOracle(t *testing.T) {
	var alphas []float64
	for a := 1.2; a <= 3.21; a += 0.2 {
		alphas = append(alphas, a)
	}
	g := exponentGrid
	if len(g) != len(alphas) {
		t.Fatalf("grid has %d exponents, want %d", len(g), len(alphas))
	}
	for _, c := range coverageSweep {
		var bnm binomialTable
		bnm.fill(c)
		for i, pt := range g {
			if !sameBits(pt.good.Alpha, alphas[i]) || !sameBits(pt.bad.Alpha, alphas[i]+badAlphaOffset) {
				t.Fatalf("grid point %d has exponents (%v, %v), want (%v, %v)", i, pt.good.Alpha, pt.bad.Alpha, alphas[i], alphas[i]+badAlphaOffset)
			}
			for _, pl := range []*stat.PowerLaw{pt.good, pt.bad} {
				var got [maxFreq + 1]float64
				gotObs := truncatedObsPMF(pl, &bnm, &got)
				want, wantObs := oracleTruncatedObsPMF(pl.Alpha, c)
				if !sameBits(gotObs, wantObs) {
					t.Errorf("alpha=%v c=%v: pobs %v, oracle %v", pl.Alpha, c, gotObs, wantObs)
				}
				for k := range want {
					if !sameBits(got[k], want[k]) {
						t.Errorf("alpha=%v c=%v: pmf[%d] = %v, oracle %v", pl.Alpha, c, k, got[k], want[k])
					}
				}
			}
		}
	}
}

// TestFitPartitionMatchesOracle: the hoisted partition fit picks the
// oracle's cell across densities, IE rates, bad-in-good priors (including
// the no-bad-document and all-bad-in-good corners) and emission shapes.
func TestFitPartitionMatchesOracle(t *testing.T) {
	hists := [][]int{nil, {900, 80}, {700, 240, 50, 9, 1}, {10, 0, 0, 0, 30}}
	for _, tp := range []float64{0.3, 0.85} {
		for _, fp := range []float64{0, 0.1, 0.6} {
			for _, phi := range []float64{0, 0.3, 1} {
				for _, tot := range [][2]float64{{1500, 0}, {1500, 900}, {40, 5000}, {20000, 20000}} {
					for _, h := range hists {
						yield := 0
						for k := 1; k < len(h); k++ {
							yield += h[k]
						}
						obs := Observation{
							D: 8000, DocsProcessed: 1200, YieldDocs: yield, EmissionHist: h,
							TP: tp, FP: fp, BadInGoodPrior: phi,
						}
						gdg, gdb := fitPartition(obs, tot[0], tot[1])
						wdg, wdb := oracleFitPartition(obs, tot[0], tot[1])
						if gdg != wdg || gdb != wdb {
							t.Errorf("tp=%v fp=%v phi=%v tot=%v hist=%v: (Dg, Db) = (%d, %d), oracle (%d, %d)",
								tp, fp, phi, tot, h, gdg, gdb, wdg, wdb)
						}
					}
				}
			}
		}
	}
}

// TestConcurrentEstimatesMatchSequential: joinoptd estimates from
// concurrent jobs, which share the exponent grid; concurrent Estimate and
// CrossValidate calls must return exactly the sequential results.
func TestConcurrentEstimatesMatchSequential(t *testing.T) {
	r := stat.NewRNG(11)
	good, bad := stat.MustPowerLaw(1.8, 12), stat.MustPowerLaw(2.3, 8)
	var obs []Observation
	for i, fp := range []float64{0, 0.2, 0.55} {
		vc := map[string]int{}
		for v := 0; v < 150+100*i; v++ {
			pl := good
			if v%3 == 0 {
				pl = bad
			}
			vc[fmt.Sprintf("v%d", v)] = pl.Sample(r)
		}
		obs = append(obs, Observation{
			D: 8000, DocsProcessed: 800 * (i + 1), YieldDocs: 300 + 50*i,
			ValueCounts: vc, EmissionHist: []int{500, 220, 60, 20},
			TP: 0.8, FP: fp, BadInGoodPrior: 0.3,
		})
	}
	type result struct {
		est *Estimated
		div float64
	}
	run := func(o Observation) (result, error) {
		est, err := Estimate(o)
		if err != nil {
			return result{}, err
		}
		div, err := CrossValidate(o)
		return result{est, div}, err
	}

	const workers = 4
	got := make([][]result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range obs {
				o := obs[(i+w)%len(obs)]
				res, err := run(o)
				if err != nil {
					t.Error(err)
					return
				}
				got[w] = append(got[w], res)
			}
		}(w)
	}
	wg.Wait()

	for i, o := range obs {
		want, err := run(o)
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < workers; w++ {
			if j := (i - w + len(obs)) % len(obs); j < len(got[w]) && !reflect.DeepEqual(got[w][j], want) {
				t.Errorf("observation %d, worker %d: concurrent result %+v differs from sequential %+v", i, w, got[w][j], want)
			}
		}
	}
}
