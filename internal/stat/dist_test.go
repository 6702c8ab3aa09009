package stat

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

// Choose returns C(n, k) from LogChoose (0 when out of range).
func Choose(n, k int) float64 {
	lc := LogChoose(n, k)
	if math.IsInf(lc, -1) {
		return 0
	}
	return math.Exp(lc)
}

// BinomialMean returns n*p, the mean of the binomial distribution.
func BinomialMean(n int, p float64) float64 { return float64(n) * p }

// HypergeometricMean returns S·g/D, the mean number of marked items drawn.
func HypergeometricMean(D, S, g int) float64 {
	if D <= 0 {
		return 0
	}
	return float64(S) * float64(g) / float64(D)
}

// SupportSum sums a PMF over [0, n].
func SupportSum(n int, pmf func(k int) float64) float64 {
	var s float64
	for k := 0; k <= n; k++ {
		s += pmf(k)
	}
	return s
}

func TestLogChooseSmallValues(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {5, 2, 10}, {10, 5, 252}, {52, 5, 2598960},
	}
	for _, c := range cases {
		got := Choose(c.n, c.k)
		if !almostEqual(got, c.want, c.want*1e-9) {
			t.Errorf("Choose(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
}

func TestChooseOutOfRange(t *testing.T) {
	if Choose(5, -1) != 0 {
		t.Error("Choose(5,-1) should be 0")
	}
	if Choose(5, 6) != 0 {
		t.Error("Choose(5,6) should be 0")
	}
}

func TestChoosePascalProperty(t *testing.T) {
	// C(n,k) = C(n-1,k-1) + C(n-1,k) for 1 <= k <= n-1.
	f := func(n8, k8 uint8) bool {
		n := int(n8%60) + 2
		k := int(k8)%(n-1) + 1
		lhs := Choose(n, k)
		rhs := Choose(n-1, k-1) + Choose(n-1, k)
		return almostEqual(lhs, rhs, lhs*1e-9+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBinomialPMFSumsToOne(t *testing.T) {
	f := func(n8 uint8, pRaw uint16) bool {
		n := int(n8 % 100)
		p := float64(pRaw) / 65535.0
		s := SupportSum(n, func(k int) float64 { return BinomialPMF(n, k, p) })
		return almostEqual(s, 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBinomialPMFMeanMatches(t *testing.T) {
	n, p := 40, 0.3
	var mean float64
	for k := 0; k <= n; k++ {
		mean += float64(k) * BinomialPMF(n, k, p)
	}
	if !almostEqual(mean, BinomialMean(n, p), 1e-9) {
		t.Errorf("PMF mean %v != n*p %v", mean, BinomialMean(n, p))
	}
}

func TestBinomialPMFEdgeProbabilities(t *testing.T) {
	if BinomialPMF(10, 0, 0) != 1 {
		t.Error("p=0 should put all mass at k=0")
	}
	if BinomialPMF(10, 10, 1) != 1 {
		t.Error("p=1 should put all mass at k=n")
	}
	if BinomialPMF(-1, 0, 0.5) != 0 {
		t.Error("negative n should have zero mass")
	}
}

func TestHypergeometricPMFSumsToOne(t *testing.T) {
	f := func(d8, s8, g8 uint8) bool {
		D := int(d8%50) + 1
		S := int(s8) % (D + 1)
		g := int(g8) % (D + 1)
		s := SupportSum(g, func(k int) float64 { return HypergeometricPMF(D, S, g, k) })
		return almostEqual(s, 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHypergeometricPMFMeanMatches(t *testing.T) {
	D, S, g := 100, 30, 20
	var mean float64
	for k := 0; k <= g; k++ {
		mean += float64(k) * HypergeometricPMF(D, S, g, k)
	}
	if !almostEqual(mean, HypergeometricMean(D, S, g), 1e-9) {
		t.Errorf("PMF mean %v != S*g/D %v", mean, HypergeometricMean(D, S, g))
	}
}

func TestHypergeometricDegenerate(t *testing.T) {
	// Drawing the whole population always sees all marked items.
	if got := HypergeometricPMF(10, 10, 4, 4); !almostEqual(got, 1, 1e-12) {
		t.Errorf("full draw should be deterministic, got %v", got)
	}
	if got := HypergeometricPMF(10, 0, 4, 0); !almostEqual(got, 1, 1e-12) {
		t.Errorf("empty draw should see zero, got %v", got)
	}
}

func TestBinomialSamplerMatchesMean(t *testing.T) {
	r := NewRNG(7)
	n, p, trials := 200, 0.25, 4000
	var sum float64
	for i := 0; i < trials; i++ {
		sum += float64(r.Binomial(n, p))
	}
	got := sum / float64(trials)
	want := BinomialMean(n, p)
	if math.Abs(got-want) > 1.5 {
		t.Errorf("sampler mean %v too far from %v", got, want)
	}
}

func TestHypergeometricSamplerMatchesMean(t *testing.T) {
	r := NewRNG(11)
	D, S, g, trials := 500, 120, 80, 3000
	var sum float64
	for i := 0; i < trials; i++ {
		sum += float64(r.Hypergeometric(D, S, g))
	}
	got := sum / float64(trials)
	want := HypergeometricMean(D, S, g)
	if math.Abs(got-want) > 0.6 {
		t.Errorf("sampler mean %v too far from %v", got, want)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must yield same stream")
		}
	}
}

func TestRNGForkIndependence(t *testing.T) {
	a := NewRNG(42)
	f := a.Fork()
	// Consuming the fork must not disturb subsequent parent draws relative
	// to re-deriving from the same state.
	b := NewRNG(42)
	_ = b.Fork()
	for i := 0; i < 50; i++ {
		f.Float64()
	}
	for i := 0; i < 50; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("fork consumption perturbed parent stream")
		}
	}
}

func TestRNGPickWeighted(t *testing.T) {
	r := NewRNG(3)
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	for i := 0; i < 8000; i++ {
		counts[r.Pick(weights)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight index picked %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.5 || ratio > 3.5 {
		t.Errorf("weight ratio %v should be near 3", ratio)
	}
}

func TestRNGPickPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for all-zero weights")
		}
	}()
	NewRNG(1).Pick([]float64{0, 0})
}

func TestBernoulliExtremes(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 10; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) must be false")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) must be true")
		}
	}
}

func TestRNGHelpers(t *testing.T) {
	r := NewRNG(12)
	perm := r.Perm(10)
	seen := make([]bool, 10)
	for _, p := range perm {
		if p < 0 || p >= 10 || seen[p] {
			t.Fatalf("invalid permutation %v", perm)
		}
		seen[p] = true
	}
	vals := []int{1, 2, 3, 4, 5}
	sum := 0
	r.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	for _, v := range vals {
		sum += v
	}
	if sum != 15 {
		t.Errorf("shuffle lost elements: %v", vals)
	}
	for i := 0; i < 100; i++ {
		if n := r.Intn(7); n < 0 || n >= 7 {
			t.Fatalf("Intn out of range: %d", n)
		}
		if r.Int63() < 0 {
			t.Fatal("Int63 returned negative")
		}
	}
	// Standard normal: mean near zero over many draws.
	var acc float64
	for i := 0; i < 20000; i++ {
		acc += r.NormFloat64()
	}
	if m := acc / 20000; m < -0.05 || m > 0.05 {
		t.Errorf("normal mean %v", m)
	}
}

func TestBinomialSamplerLargeN(t *testing.T) {
	// The normal-approximation branch (n > 64) stays in range and near the
	// mean.
	r := NewRNG(9)
	n, p := 10000, 0.37
	var sum float64
	for i := 0; i < 300; i++ {
		k := r.Binomial(n, p)
		if k < 0 || k > n {
			t.Fatalf("binomial out of range: %d", k)
		}
		sum += float64(k)
	}
	mean := sum / 300
	if math.Abs(mean-3700) > 30 {
		t.Errorf("large-n binomial mean %v, want ~3700", mean)
	}
}
