package model

import (
	"fmt"
	"math"

	"joinopt/internal/retrieval"
)

// OIJNModel estimates the output quality and execution time of an
// Outer/Inner Join plan (§V-D). The outer relation follows the
// single-relation analysis of IDJN; the inner relation is reached by
// keyword queries on the join values observed in the outer relation, so its
// occurrence coverage depends on the search interface's top-k cap, the
// value-query precision, and — for documents beyond a query's own top-k —
// the documents swept in by other values' queries (the paper's Dgr_rest).
type OIJNModel struct {
	// P1/P2 and Ov are in join orientation (R1 ⋈ R2); OuterIdx selects
	// which side plays the outer role (0 → R1, 1 → R2).
	P1, P2   *RelationParams
	Ov       Overlaps
	OuterIdx int
	XOuter   retrieval.Kind

	// CasualHits is the expected number of documents matched by a query on
	// a value with no task occurrences in the inner database (casual
	// mentions only); it contributes retrieval effort but no tuples.
	CasualHits float64

	// MentionedInner bounds the inner documents reachable by value queries
	// (documents containing at least one value occurrence). Distinct-
	// document retrieval saturates at this pool; zero falls back to
	// Dg + Db of the inner side.
	MentionedInner int

	Correlated bool
}

// orient returns (outer, inner) parameter sets and the overlap sets with
// the outer relation first.
func (m *OIJNModel) orient() (po, pi *RelationParams, ov Overlaps) {
	if m.OuterIdx == 0 {
		return m.P1, m.P2, m.Ov
	}
	// Swap roles: transpose the overlap matrix.
	return m.P2, m.P1, Overlaps{Agg: m.Ov.Agg, Agb: m.Ov.Abg, Abg: m.Ov.Agb, Abb: m.Ov.Abb}
}

// directCov returns the fraction of a value's inner occurrence documents
// its own query retrieves: min(k, H)/H with H = freq/QPrec hits (§V-D,
// the top-k split of Hg(q)).
func directCov(freq int, topK int, qprec float64) float64 {
	if freq <= 0 {
		return 0
	}
	if qprec <= 0 {
		qprec = 1
	}
	hits := float64(freq) / qprec
	if topK <= 0 || float64(topK) >= hits {
		return 1
	}
	return float64(topK) / hits
}

// innerEffort is the expected query and retrieval work on the inner side.
type innerEffort struct {
	Queries float64 // distinct outer values queried
	Docs    float64 // inner documents retrieved and processed
	JgRest  float64 // fraction of inner good docs retrieved overall
	JbRest  float64 // fraction of inner bad docs retrieved overall
}

// effort computes the inner-side work and the rest-coverage fractions in a
// first pass over the frequency distributions.
func (m *OIJNModel) effort(covO Coverage) innerEffort {
	po, pi, ov := m.orient()

	// P(a value with outer good frequency f is observed, hence queried).
	pqGood := func(f int) float64 { return 1 - math.Pow(1-covO.CG, float64(f)) }
	pqBad := func(f int) float64 { return 1 - math.Pow(1-covO.CB, float64(f)) }

	// Probability that an outer good/bad value is queried.
	pq1 := expectOver(po.GoodFreq, pqGood)
	pq1b := expectOver(po.BadFreq, pqBad)

	var eff innerEffort
	// Expected queried counts per outer value class.
	qg := float64(po.Ag) * pq1
	qb := float64(po.Ab) * pq1b
	eff.Queries = qg + qb

	// Docs retrieved directly per queried value, by overlap class. The
	// queried probability couples to the *outer* frequency; the inner hit
	// volume couples to the *inner* frequency; under independence these
	// factor.
	hitDocs := func(pmf []float64) float64 {
		return expectOver(pmf, func(f int) float64 {
			hits := float64(f) / math.Max(pi.QPrec, 1e-9)
			if pi.TopK > 0 && hits > float64(pi.TopK) {
				hits = float64(pi.TopK)
			}
			return hits
		})
	}
	var jgDocs, jbDocs, allDocs float64
	// Inner good-occurrence docs: values in Agg (outer good) and Abg
	// (outer bad).
	goodDocsPerVal := expectOver(pi.GoodFreq, func(f int) float64 {
		return float64(f) * directCov(f, pi.TopK, pi.QPrec)
	})
	badDocsPerVal := expectOver(pi.BadFreq, func(f int) float64 {
		return float64(f) * directCov(f, pi.TopK, pi.QPrec)
	})
	jgDocs = (float64(ov.Agg)*pq1 + float64(ov.Abg)*pq1b) * goodDocsPerVal
	jbDocs = (float64(ov.Agb)*pq1 + float64(ov.Abb)*pq1b) * badDocsPerVal

	// Total docs retrieved: values with inner presence pull their hits
	// (good-occurrence, bad-occurrence, and casual padding); queried values
	// without inner presence pull only casual hits.
	allDocs = (float64(ov.Agg)*pq1+float64(ov.Abg)*pq1b)*hitDocs(pi.GoodFreq) +
		(float64(ov.Agb)*pq1+float64(ov.Abb)*pq1b)*hitDocs(pi.BadFreq)

	// Distinct documents retrieved. A query's hits split into the queried
	// value's own occurrence documents (jgDocs/jbDocs above) and fuzz hits —
	// imprecision and casual mentions — that land across the whole
	// mentioned pool M and recur between queries. Both components saturate
	// with the union form 1 − e^{−expected hits / pool}, and the per-class
	// document coverages double as the rest-coverage fractions of the
	// composition (a specific document escapes only if no query hits it).
	M := float64(m.MentionedInner)
	if M <= 0 {
		M = float64(pi.Dg + pi.Db)
	}
	var totalFuzz float64
	if eff.Queries > 0 {
		occPerQ := (jgDocs + jbDocs) / eff.Queries
		hitsPerQ := allDocs / eff.Queries
		if f := hitsPerQ - occPerQ; f > 0 {
			totalFuzz = f * eff.Queries
		}
	}
	jg2 := jgDocs + totalFuzz*float64(pi.Dg)/M
	jb2 := jbDocs + totalFuzz*float64(pi.Db)/M
	if pi.Dg > 0 {
		eff.JgRest = 1 - math.Exp(-jg2/float64(pi.Dg))
	}
	if pi.Db > 0 {
		eff.JbRest = 1 - math.Exp(-jb2/float64(pi.Db))
	}
	casualPool := math.Max(M-float64(pi.Dg)-float64(pi.Db), 1)
	casualFuzz := totalFuzz * casualPool / M
	casualDocs := casualPool * (1 - math.Exp(-casualFuzz/casualPool))
	eff.Docs = math.Min(float64(pi.Dg)*eff.JgRest+float64(pi.Db)*eff.JbRest+casualDocs, float64(pi.D))
	return eff
}

// Estimate predicts the join-output composition after the outer strategy
// has spent effortOuter (documents for SC/FS, queries for AQG).
//
// The key identity: for a value a, E[grO(a)·grI(a)] = E[grO(a)] ·
// E[grI(a) | a queried], because a is queried exactly when grO(a) ≥ 1 and
// the zero term contributes nothing. The inner conditional expectation
// combines the query's own top-k coverage with the rest coverage from other
// values' queries.
func (m *OIJNModel) Estimate(effortOuter int) (Quality, error) {
	po, pi, ov := m.orient()
	procO, err := po.ProcessedAfter(m.XOuter, effortOuter)
	if err != nil {
		return Quality{}, fmt.Errorf("model: OIJN outer: %w", err)
	}
	covO := po.CoverageOf(procO)
	eff := m.effort(covO)

	// Inner conditional expectations given that the value was queried.
	innerGood := func(f int) float64 {
		d := directCov(f, pi.TopK, pi.QPrec)
		cov := d + (1-d)*eff.JgRest
		return pi.TP * float64(f) * cov
	}
	innerBad := func(f int) float64 {
		d := directCov(f, pi.TopK, pi.QPrec)
		rest := pi.BadInGoodFrac*eff.JgRest + (1-pi.BadInGoodFrac)*eff.JbRest
		cov := d + (1-d)*rest
		return pi.FP * float64(f) * cov
	}
	outerGood := LinearOcc(covO.CG)
	outerBad := LinearOcc(covO.CB)

	q := Compose(ov, po, pi, outerGood, outerBad, innerGood, innerBad, m.Correlated)
	return q, nil
}

// Time predicts the cost-model execution time for the plan at the given
// outer effort (§V-D): outer side retrieval/processing plus |Qs|·tQ and the
// inner documents' retrieval and processing.
func (m *OIJNModel) Time(effortOuter int, cOuter, cInner Costs) (float64, error) {
	po, _, _ := m.orient()
	procO, err := po.ProcessedAfter(m.XOuter, effortOuter)
	if err != nil {
		return 0, err
	}
	covO := po.CoverageOf(procO)
	eff := m.effort(covO)
	return sideTime(procO, cOuter) + eff.Queries*cInner.TQ + eff.Docs*(cInner.TR+cInner.TE), nil
}

// InnerWork exposes the expected inner-side effort for a given outer
// effort; experiments use it to compare predicted and actual work.
func (m *OIJNModel) InnerWork(effortOuter int) (queries, docs float64, err error) {
	po, _, _ := m.orient()
	procO, err := po.ProcessedAfter(m.XOuter, effortOuter)
	if err != nil {
		return 0, 0, err
	}
	eff := m.effort(po.CoverageOf(procO))
	return eff.Queries, eff.Docs, nil
}
