package stat

import (
	"math"
	"testing"
	"testing/quick"
)

// MustGenFunc is NewGenFunc that panics on error.
func MustGenFunc(coef []float64) GenFunc {
	g, err := NewGenFunc(coef)
	if err != nil {
		panic(err)
	}
	return g
}

// Eval returns G(x) by Horner evaluation.
func (g GenFunc) Eval(x float64) float64 {
	var v float64
	for i := len(g.Coef) - 1; i >= 0; i-- {
		v = v*x + g.Coef[i]
	}
	return v
}

// randomGenFunc builds a normalized PGF from raw bytes; used by property
// tests.
func randomGenFunc(raw []byte) (GenFunc, bool) {
	if len(raw) == 0 {
		return GenFunc{}, false
	}
	if len(raw) > 12 {
		raw = raw[:12]
	}
	coef := make([]float64, len(raw))
	var sum float64
	for i, b := range raw {
		coef[i] = float64(b)
		sum += coef[i]
	}
	if sum == 0 {
		return GenFunc{}, false
	}
	g, err := NewGenFunc(coef)
	return g, err == nil
}

func TestGenFuncNormalization(t *testing.T) {
	g := MustGenFunc([]float64{2, 4, 2})
	if !almostEqual(g.Eval(1), 1, 1e-12) {
		t.Errorf("G(1) = %v, want 1", g.Eval(1))
	}
	if !almostEqual(g.Coef[1], 0.5, 1e-12) {
		t.Errorf("middle coefficient %v, want 0.5", g.Coef[1])
	}
}

func TestGenFuncInvalid(t *testing.T) {
	if _, err := NewGenFunc(nil); err == nil {
		t.Error("empty coef should fail")
	}
	if _, err := NewGenFunc([]float64{1, -1}); err == nil {
		t.Error("negative coef should fail")
	}
	if _, err := NewGenFunc([]float64{0, 0}); err == nil {
		t.Error("zero-sum coef should fail")
	}
}

func TestGenFuncMeanNumericDerivative(t *testing.T) {
	// Moments property: E[X] = G'(1); compare against a numeric derivative.
	f := func(raw []byte) bool {
		g, ok := randomGenFunc(raw)
		if !ok {
			return true
		}
		h := 1e-6
		numeric := (g.Eval(1) - g.Eval(1-h)) / h
		return almostEqual(g.Mean(), numeric, 1e-3)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGenFuncEvalAtOneIsOne(t *testing.T) {
	f := func(raw []byte) bool {
		g, ok := randomGenFunc(raw)
		if !ok {
			return true
		}
		return almostEqual(g.Eval(1), 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExcessSizeBias(t *testing.T) {
	// For degree distribution {1: 0.5, 3: 0.5}, following a random edge
	// reaches a degree-3 node with probability 3/4.
	g := MustGenFunc([]float64{0, 0.5, 0, 0.5})
	h, err := g.Excess()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(h.Coef[1], 0.25, 1e-12) || !almostEqual(h.Coef[3], 0.75, 1e-12) {
		t.Errorf("excess coefficients %v, want [_, .25, 0, .75]", h.Coef)
	}
}

func TestExcessZeroMeanFails(t *testing.T) {
	g := MustGenFunc([]float64{1}) // point mass at 0
	if _, err := g.Excess(); err == nil {
		t.Error("excess of zero-mean PGF must fail")
	}
}

func TestComposeMeanMatchesChainRule(t *testing.T) {
	// Composition property: mean of G(F(x)) = G'(1)·F'(1).
	f := func(rawG, rawF []byte) bool {
		g, ok := randomGenFunc(rawG)
		if !ok {
			return true
		}
		fg, ok := randomGenFunc(rawF)
		if !ok {
			return true
		}
		composed := g.Compose(fg, 400)
		exact := MeanCompose(g, fg)
		// Truncation at 400 with degrees <= 12 each (max composed degree
		// 11*11=121) is lossless here.
		return almostEqual(composed.Mean(), exact, 1e-6*(1+exact))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPowerMeanMatches(t *testing.T) {
	g := MustGenFunc([]float64{0.2, 0.5, 0.3})
	for m := 0; m <= 5; m++ {
		p := g.Power(m, 50)
		if !almostEqual(p.Mean(), MeanPower(g, m), 1e-9) {
			t.Errorf("Power(%d) mean %v, want %v", m, p.Mean(), MeanPower(g, m))
		}
	}
}

func TestPowerZeroIsPointMassAtZero(t *testing.T) {
	g := MustGenFunc([]float64{0.5, 0.5})
	p := g.Power(0, 10)
	if !almostEqual(p.Coef[0], 1, 1e-12) {
		t.Errorf("G^0 should be the constant 1, got %v", p.Coef)
	}
}

func TestComposeMatchesDirectConvolution(t *testing.T) {
	// G = point mass at 2, F arbitrary: G(F(x)) = F(x)^2.
	g := MustGenFunc([]float64{0, 0, 1})
	fg := MustGenFunc([]float64{0.25, 0.5, 0.25})
	composed := g.Compose(fg, 10)
	squared := fg.Power(2, 10)
	for i := range squared.Coef {
		if !almostEqual(composed.Coef[i], squared.Coef[i], 1e-12) {
			t.Fatalf("coef %d: compose %v vs power %v", i, composed.Coef[i], squared.Coef[i])
		}
	}
}

func TestVarianceAgainstDirect(t *testing.T) {
	g := MustGenFunc([]float64{0.1, 0.2, 0.3, 0.4})
	var mean, m2 float64
	for k, c := range g.Coef {
		mean += float64(k) * c
		m2 += float64(k) * float64(k) * c
	}
	want := m2 - mean*mean
	if !almostEqual(g.Variance(), want, 1e-12) {
		t.Errorf("variance %v, want %v", g.Variance(), want)
	}
}

func TestComposeTruncationCollapses(t *testing.T) {
	// Composing big point masses beyond the truncation degree must not
	// produce NaNs; it collapses to a point mass at the cap.
	g := MustGenFunc([]float64{0, 0, 0, 0, 1}) // point mass at 4
	fg := MustGenFunc([]float64{0, 0, 0, 1})   // point mass at 3
	composed := g.Compose(fg, 5)               // true mass at 12 > 5
	if math.IsNaN(composed.Mean()) {
		t.Fatal("NaN mean after truncation")
	}
	if composed.Mean() > 5+1e-9 {
		t.Fatalf("truncated mean %v exceeds cap", composed.Mean())
	}
}
