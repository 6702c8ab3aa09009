package model

import (
	"fmt"

	"joinopt/internal/stat"
)

// Distributional form of the zig-zag analysis — the paper's §V-E formulas
// implemented literally as probability-generating functions, not just their
// means:
//
//	Dr2(x) = [H1(x)]^Q1                 documents retrieved from D2
//	Ar2(x) = [H1(Ga2(x))]^Q1            values generated for R2
//	Dr1(x) = Ar2(H2(x))                 documents retrieved from D1
//	Ar1(x) = Dr1(Ga1(x))                values generated for R1
//
// where H_i is the excess transform of the hit-degree distribution of
// queries against side i's database and Ga_i the excess transform of the
// values-per-document distribution. The Moments property recovers the
// expected counts; the full coefficients expose the spread of a zig-zag
// sweep, which the mean-field cascade cannot.

// CascadeDist holds the four §V-E distributions after Q1 seed queries.
type CascadeDist struct {
	Dr2 stat.GenFunc
	Ar2 stat.GenFunc
	Dr1 stat.GenFunc
	Ar1 stat.GenFunc
}

// CascadeDist computes the §V-E generating functions for nSeed seed queries
// issued against side 1, truncating coefficient vectors at maxDegree.
// Truncation loses tail mass for supercritical cascades; the exact means of
// the untruncated functions are available via CascadeMeans.
func (m *ZGJNModel) CascadeDist(nSeed, maxDegree int) (*CascadeDist, error) {
	if nSeed < 1 {
		return nil, fmt.Errorf("model: need at least one seed query")
	}
	if maxDegree < 8 {
		maxDegree = 8
	}
	h1, ga1, err := m.sideTransforms(m.P1)
	if err != nil {
		return nil, fmt.Errorf("model: side 1: %w", err)
	}
	h2, ga2, err := m.sideTransforms(m.P2)
	if err != nil {
		return nil, fmt.Errorf("model: side 2: %w", err)
	}
	// Note the database orientation: seed queries carry R1 values and are
	// issued against D2 (Figure 8), so the first hop uses side 2's hit
	// transform; the returned values then query D1 with side 1's.
	out := &CascadeDist{}
	out.Dr2 = h2.Power(nSeed, maxDegree)
	out.Ar2 = h2.Compose(ga2, maxDegree).Power(nSeed, maxDegree)
	out.Dr1 = out.Ar2.Compose(h1, maxDegree)
	out.Ar1 = out.Dr1.Compose(ga1, maxDegree)
	return out, nil
}

// CascadeMeans returns the exact (untruncated) means of the four §V-E
// quantities by the Moments, Power, and Composition properties:
// E[Dr2] = Q·H2'(1), E[Ar2] = Q·H2'(1)·Ga2'(1), and so on by the chain
// rule.
func (m *ZGJNModel) CascadeMeans(nSeed int) (dr2, ar2, dr1, ar1 float64, err error) {
	if nSeed < 1 {
		return 0, 0, 0, 0, fmt.Errorf("model: need at least one seed query")
	}
	h1, ga1, err := m.sideTransforms(m.P1)
	if err != nil {
		return 0, 0, 0, 0, fmt.Errorf("model: side 1: %w", err)
	}
	h2, ga2, err := m.sideTransforms(m.P2)
	if err != nil {
		return 0, 0, 0, 0, fmt.Errorf("model: side 2: %w", err)
	}
	dr2 = float64(nSeed) * h2.Mean()
	ar2 = dr2 * ga2.Mean()
	dr1 = ar2 * h1.Mean()
	ar1 = dr1 * ga1.Mean()
	return dr2, ar2, dr1, ar1, nil
}

// sideTransforms builds the excess transforms H and Ga for one side.
func (m *ZGJNModel) sideTransforms(p *RelationParams) (h, ga stat.GenFunc, err error) {
	h0, err := hitPGF(p)
	if err != nil {
		return h, ga, err
	}
	h, err = h0.Excess()
	if err != nil {
		return h, ga, fmt.Errorf("zero hit degree: %w", err)
	}
	if len(p.ValuesPerDoc) == 0 {
		return h, ga, fmt.Errorf("missing ValuesPerDoc")
	}
	ga0, err := stat.NewGenFunc(p.ValuesPerDoc)
	if err != nil {
		return h, ga, fmt.Errorf("ValuesPerDoc: %w", err)
	}
	ga, err = ga0.Excess()
	if err != nil {
		// All documents emit zero values: the cascade dies after the seed
		// sweep; represent Ga as the point mass at zero.
		ga = stat.GenFunc{Coef: []float64{1}}
	}
	return h, ga, nil
}
