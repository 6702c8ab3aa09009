package stat

import (
	"fmt"
	"math"
)

// GenFunc is a probability-generating function represented by its
// coefficient vector: Coef[k] = Pr{X = k}, so G(x) = Σ_k Coef[k] x^k.
//
// The zig-zag join model (§V-E of the paper) describes the reach of
// interleaved keyword querying with generating functions over the "zig-zag
// graph" of attribute and document nodes, following Newman, Strogatz, and
// Watts. Three properties are used:
//
//   - Moments:     E[X] = G'(1)
//   - Power:       the sum of m i.i.d. draws has PGF G(x)^m
//   - Composition: a G-distributed number of i.i.d. F draws has PGF G(F(x))
type GenFunc struct {
	Coef []float64
}

// NewGenFunc builds a PGF from a coefficient vector, normalizing it to sum
// to 1. It returns an error if the vector is empty, has negative entries, or
// sums to zero.
func NewGenFunc(coef []float64) (GenFunc, error) {
	if len(coef) == 0 {
		return GenFunc{}, fmt.Errorf("stat: empty generating function")
	}
	var sum float64
	for i, c := range coef {
		if c < 0 || math.IsNaN(c) {
			return GenFunc{}, fmt.Errorf("stat: invalid coefficient %v at degree %d", c, i)
		}
		sum += c
	}
	if sum <= 0 {
		return GenFunc{}, fmt.Errorf("stat: generating function sums to zero")
	}
	out := make([]float64, len(coef))
	for i, c := range coef {
		out[i] = c / sum
	}
	return GenFunc{Coef: out}, nil
}

// Mean returns E[X] = G'(1) (the Moments property).
func (g GenFunc) Mean() float64 {
	var m float64
	for k, c := range g.Coef {
		m += float64(k) * c
	}
	return m
}

// SecondFactorialMoment returns G”(1) = E[X(X-1)], used for variance:
// Var[X] = G”(1) + G'(1) - G'(1)^2.
func (g GenFunc) SecondFactorialMoment() float64 {
	var m float64
	for k, c := range g.Coef {
		m += float64(k) * float64(k-1) * c
	}
	return m
}

// Variance returns Var[X].
func (g GenFunc) Variance() float64 {
	mu := g.Mean()
	return g.SecondFactorialMoment() + mu - mu*mu
}

// Excess returns the distribution of the value reached by following a random
// edge: H(x) = x·G'(x)/G'(1). In the zig-zag graph this transforms the
// frequency distribution of a random attribute (or document) into that of an
// attribute (document) chosen by following a random hit or generates edge —
// size-biased sampling. It returns an error when G'(1) = 0 (a degenerate
// graph with no edges).
func (g GenFunc) Excess() (GenFunc, error) {
	mean := g.Mean()
	if mean <= 0 {
		return GenFunc{}, fmt.Errorf("stat: excess of zero-mean generating function")
	}
	// x·G'(x) = Σ_k k·Coef[k]·x^k, so the coefficient at degree k is
	// k·Coef[k]/G'(1).
	coef := make([]float64, len(g.Coef))
	for k, c := range g.Coef {
		coef[k] = float64(k) * c / mean
	}
	return NewGenFunc(coef)
}

// Compose returns G(F(x)) truncated to maxDegree coefficients: the PGF of the
// sum of a G-distributed number of i.i.d. F-distributed draws (Composition
// property). Truncation loses mass beyond maxDegree; Mean on the composed
// function is then a lower bound. For exact means use MeanCompose.
func (g GenFunc) Compose(f GenFunc, maxDegree int) GenFunc {
	if maxDegree < 1 {
		maxDegree = 1
	}
	// result = Σ_k g.Coef[k] · F(x)^k, computed with truncated polynomial
	// powers of F.
	result := make([]float64, maxDegree+1)
	power := make([]float64, 1, maxDegree+1)
	power[0] = 1 // F^0
	for k := 0; k < len(g.Coef); k++ {
		c := g.Coef[k]
		if c > 0 {
			for d := 0; d < len(power) && d <= maxDegree; d++ {
				result[d] += c * power[d]
			}
		}
		if k+1 < len(g.Coef) {
			power = polyMulTrunc(power, f.Coef, maxDegree)
			if polyIsZero(power) {
				break
			}
		}
	}
	out, err := NewGenFunc(result)
	if err != nil {
		// All mass truncated away; collapse to the point mass at maxDegree.
		point := make([]float64, maxDegree+1)
		point[maxDegree] = 1
		return GenFunc{Coef: point}
	}
	return out
}

// MeanCompose returns the exact mean of G(F(x)) by the chain rule:
// d/dx G(F(x))|_{x=1} = G'(F(1))·F'(1) = G'(1)·F'(1) since F(1)=1.
func MeanCompose(g, f GenFunc) float64 { return g.Mean() * f.Mean() }

// Power returns G(x)^m truncated to maxDegree: the PGF of the sum of m
// i.i.d. draws (Power property).
func (g GenFunc) Power(m, maxDegree int) GenFunc {
	if m < 0 {
		panic("stat: negative power")
	}
	result := []float64{1}
	base := g.Coef
	// Exponentiation by squaring over truncated polynomials.
	for m > 0 {
		if m&1 == 1 {
			result = polyMulTrunc(result, base, maxDegree)
		}
		m >>= 1
		if m > 0 {
			base = polyMulTrunc(base, base, maxDegree)
		}
	}
	out, err := NewGenFunc(result)
	if err != nil {
		point := make([]float64, maxDegree+1)
		point[maxDegree] = 1
		return GenFunc{Coef: point}
	}
	return out
}

// MeanPower returns the exact mean of G(x)^m: m·G'(1).
func MeanPower(g GenFunc, m int) float64 { return float64(m) * g.Mean() }

// polyMulTrunc multiplies two coefficient vectors, truncating at maxDegree.
func polyMulTrunc(a, b []float64, maxDegree int) []float64 {
	n := len(a) + len(b) - 1
	if n > maxDegree+1 {
		n = maxDegree + 1
	}
	if n < 1 {
		n = 1
	}
	out := make([]float64, n)
	for i, ai := range a {
		if ai == 0 || i >= n {
			continue
		}
		hi := n - i
		if hi > len(b) {
			hi = len(b)
		}
		for j := 0; j < hi; j++ {
			out[i+j] += ai * b[j]
		}
	}
	return out
}

func polyIsZero(p []float64) bool {
	for _, c := range p {
		if c != 0 {
			return false
		}
	}
	return true
}
