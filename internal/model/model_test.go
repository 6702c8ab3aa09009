package model

import (
	"math"
	"testing"
	"testing/quick"

	"joinopt/internal/relation"
	"joinopt/internal/retrieval"
	"joinopt/internal/stat"
)

func simpleParams() *RelationParams {
	return &RelationParams{
		D: 1000, Dg: 150, Db: 80,
		Ag: 100, Ab: 60,
		GoodFreq:      []float64{0.5, 0.3, 0.2},
		BadFreq:       []float64{0.7, 0.3},
		TP:            0.8,
		FP:            0.4,
		BadInGoodFrac: 0.3,
		Ctp:           0.85, Cfp: 0.2,
		AQG: []QueryParam{
			{Hits: 60, GoodHits: 40, BadHits: 10},
			{Hits: 50, GoodHits: 30, BadHits: 10},
		},
		TopK: 20, QPrec: 0.8,
		ValuesPerDoc: []float64{0.2, 0.5, 0.3},
	}
}

func TestValidate(t *testing.T) {
	p := simpleParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *p
	bad.Dg = 0
	if bad.Validate() == nil {
		t.Error("expected error for Dg=0")
	}
	bad = *p
	bad.TP = 1.5
	if bad.Validate() == nil {
		t.Error("expected error for tp>1")
	}
	bad = *p
	bad.GoodFreq = nil
	if bad.Validate() == nil {
		t.Error("expected error for missing frequency distribution")
	}
}

func TestProcessedAfterScan(t *testing.T) {
	p := simpleParams()
	proc, err := p.ProcessedAfter(retrieval.SC, 500)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(proc.Jg-75) > 1e-9 || math.Abs(proc.Jb-40) > 1e-9 {
		t.Errorf("scan composition %+v, want Jg=75 Jb=40", proc)
	}
	if proc.ProcTotal != 500 || proc.Retrieved != 500 {
		t.Errorf("scan processes everything retrieved: %+v", proc)
	}
	// Beyond |D| clamps.
	proc, _ = p.ProcessedAfter(retrieval.SC, 5000)
	if proc.Jg != 150 {
		t.Errorf("clamped Jg %v", proc.Jg)
	}
}

func TestProcessedAfterFilteredScan(t *testing.T) {
	p := simpleParams()
	proc, err := p.ProcessedAfter(retrieval.FS, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(proc.Jg-150*0.85) > 1e-9 {
		t.Errorf("FS Jg %v, want 127.5", proc.Jg)
	}
	if math.Abs(proc.Jb-80*0.2) > 1e-9 {
		t.Errorf("FS Jb %v, want 16", proc.Jb)
	}
	wantProc := 150*0.85 + 80*0.2 + 770*0.2
	if math.Abs(proc.ProcTotal-wantProc) > 1e-9 {
		t.Errorf("FS processed %v, want %v", proc.ProcTotal, wantProc)
	}
	if math.Abs(proc.Filtered-(1000-wantProc)) > 1e-9 {
		t.Errorf("FS filtered %v", proc.Filtered)
	}
}

func TestProcessedAfterAQG(t *testing.T) {
	p := simpleParams()
	proc, err := p.ProcessedAfter(retrieval.AQG, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantJg := 150 * (1 - (1-40.0/150)*(1-30.0/150))
	if math.Abs(proc.Jg-wantJg) > 1e-9 {
		t.Errorf("AQG Jg %v, want %v (Equation 2)", proc.Jg, wantJg)
	}
	if proc.Queries != 2 {
		t.Errorf("queries %v", proc.Queries)
	}
	// More queries than available clamps to the learned set.
	proc2, _ := p.ProcessedAfter(retrieval.AQG, 10)
	if proc2.Queries != 2 {
		t.Errorf("queries beyond learned set: %v", proc2.Queries)
	}
	empty := *p
	empty.AQG = nil
	if _, err := empty.ProcessedAfter(retrieval.AQG, 1); err == nil {
		t.Error("expected error without AQG parameters")
	}
	if _, err := p.ProcessedAfter(retrieval.Kind("nope"), 1); err == nil {
		t.Error("expected error for unknown strategy")
	}
}

func TestCoverageMonotoneInEffort(t *testing.T) {
	p := simpleParams()
	prev := -1.0
	for _, dr := range []int{0, 100, 400, 1000} {
		proc, err := p.ProcessedAfter(retrieval.SC, dr)
		if err != nil {
			t.Fatal(err)
		}
		cov := p.CoverageOf(proc)
		if cov.CG < prev {
			t.Fatalf("coverage decreased at %d docs", dr)
		}
		if cov.CG < 0 || cov.CG > 1 || cov.CB < 0 || cov.CB > 1 {
			t.Fatalf("coverage out of range: %+v", cov)
		}
		prev = cov.CG
	}
	// Full scan coverage = tp.
	proc, _ := p.ProcessedAfter(retrieval.SC, 1000)
	cov := p.CoverageOf(proc)
	if math.Abs(cov.CG-p.TP) > 1e-9 {
		t.Errorf("full-scan CG %v, want tp %v", cov.CG, p.TP)
	}
	if math.Abs(cov.CB-p.FP) > 1e-9 {
		t.Errorf("full-scan CB %v, want fp %v", cov.CB, p.FP)
	}
}

func TestComposeHandComputed(t *testing.T) {
	// Point-mass frequencies make the composition exactly computable:
	// g1 = 2, g2 = 3, coverage 0.5 each side →
	// good = Agg · (0.5·2)·(0.5·3) = Agg·1.5.
	p1 := &RelationParams{GoodFreq: []float64{0, 1}, BadFreq: []float64{1}}
	p2 := &RelationParams{GoodFreq: []float64{0, 0, 1}, BadFreq: []float64{1}}
	ov := Overlaps{Agg: 10, Agb: 4, Abg: 5, Abb: 2}
	q := Compose(ov, p1, p2, LinearOcc(0.5), LinearOcc(0.1), LinearOcc(0.5), LinearOcc(0.2), false)
	if math.Abs(q.Good-10*1.5) > 1e-9 {
		t.Errorf("good %v, want 15", q.Good)
	}
	// bad = Agb·(0.5·2)(0.2·1) + Abg·(0.1·1)(0.5·3) + Abb·(0.1·1)(0.2·1)
	wantBad := 4*1.0*0.2 + 5*0.1*1.5 + 2*0.1*0.2
	if math.Abs(q.Bad-wantBad) > 1e-9 {
		t.Errorf("bad %v, want %v", q.Bad, wantBad)
	}
}

func TestComposeCorrelatedExceedsIndependentForHeavyTails(t *testing.T) {
	// With identical heavy-tailed marginals and linear expectations, the
	// correlated coupling yields E[g²] ≥ E[g]² (Jensen).
	pmf := []float64{0.7, 0.1, 0.1, 0.05, 0.05}
	p1 := &RelationParams{GoodFreq: pmf, BadFreq: pmf}
	p2 := &RelationParams{GoodFreq: pmf, BadFreq: pmf}
	ov := Overlaps{Agg: 10}
	ind := Compose(ov, p1, p2, LinearOcc(0.5), LinearOcc(0), LinearOcc(0.5), LinearOcc(0), false)
	corr := Compose(ov, p1, p2, LinearOcc(0.5), LinearOcc(0), LinearOcc(0.5), LinearOcc(0), true)
	if corr.Good <= ind.Good {
		t.Errorf("correlated %v should exceed independent %v", corr.Good, ind.Good)
	}
}

func TestExactMatchesClosedForm(t *testing.T) {
	// Property: the exact distribution sum equals the closed-form mean
	// product rate·freq·drawn/pop.
	f := func(popRaw, drawnRaw, freqRaw, rateRaw uint8) bool {
		pop := int(popRaw%50) + 10
		drawn := int(drawnRaw) % (pop + 1)
		freq := int(freqRaw)%10 + 1
		if freq > pop {
			freq = pop
		}
		rate := float64(rateRaw) / 255
		exact := ExactExpectedObserved(pop, drawn, freq, rate)
		closed := rate * float64(freq) * float64(drawn) / float64(pop)
		return math.Abs(exact-closed) < 1e-6*(1+closed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestIDJNModelMonotoneAndBounded(t *testing.T) {
	m := &IDJNModel{
		P1: simpleParams(), P2: simpleParams(),
		X1: retrieval.SC, X2: retrieval.SC,
		Ov: Overlaps{Agg: 50, Agb: 20, Abg: 20, Abb: 10},
	}
	prev := Quality{}
	for _, dr := range []int{0, 250, 500, 1000} {
		q, err := m.Estimate(dr, dr)
		if err != nil {
			t.Fatal(err)
		}
		if q.Good < prev.Good || q.Bad < prev.Bad {
			t.Fatalf("estimates must grow with effort: %+v after %+v", q, prev)
		}
		prev = q
	}
	// Upper bound: full coverage with tp=1 would see Agg·E[g1]·E[g2].
	maxGood := 50.0 * meanFreq(m.P1.GoodFreq) * meanFreq(m.P2.GoodFreq)
	if prev.Good > maxGood {
		t.Errorf("estimate %v exceeds coverage bound %v", prev.Good, maxGood)
	}
}

func TestIDJNTimeComponents(t *testing.T) {
	m := &IDJNModel{
		P1: simpleParams(), P2: simpleParams(),
		X1: retrieval.SC, X2: retrieval.FS,
		Ov: Overlaps{Agg: 50},
	}
	c := Costs{TR: 1, TE: 5, TF: 0.1, TQ: 2}
	tm, err := m.Time(100, 100, c, c)
	if err != nil {
		t.Fatal(err)
	}
	// Side 1 (scan): 100·(1+5) = 600. Side 2 (FS): 100 retrievals + some
	// filtered + processed fraction — strictly less processing than scan.
	scanOnly := 600.0
	if tm <= scanOnly {
		t.Errorf("time %v should exceed the scan side alone", tm)
	}
	tmScanScan, _ := (&IDJNModel{P1: m.P1, P2: m.P2, X1: retrieval.SC, X2: retrieval.SC, Ov: m.Ov}).Time(100, 100, c, c)
	if tm >= tmScanScan {
		t.Errorf("FS side should be cheaper than scanning: %v vs %v", tm, tmScanScan)
	}
}

func TestOIJNModelBasics(t *testing.T) {
	m := &OIJNModel{
		P1: simpleParams(), P2: simpleParams(),
		Ov:         Overlaps{Agg: 50, Agb: 20, Abg: 20, Abb: 10},
		OuterIdx:   0,
		XOuter:     retrieval.SC,
		CasualHits: 1.5,
	}
	q1, err := m.Estimate(200)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := m.Estimate(1000)
	if err != nil {
		t.Fatal(err)
	}
	if q2.Good <= q1.Good {
		t.Errorf("outer effort should grow output: %v -> %v", q1.Good, q2.Good)
	}
	// With free outer costs and a unit inner tQ (tR), Time is the expected
	// inner query (document) count.
	queries, err := m.Time(1000, Costs{}, Costs{TQ: 1})
	if err != nil {
		t.Fatal(err)
	}
	docs, err := m.Time(1000, Costs{}, Costs{TR: 1})
	if err != nil {
		t.Fatal(err)
	}
	if queries <= 0 || docs <= 0 {
		t.Errorf("inner work %v queries %v docs", queries, docs)
	}
	maxQ := float64(m.P1.Ag + m.P1.Ab)
	if queries > maxQ {
		t.Errorf("queries %v exceed outer value population %v", queries, maxQ)
	}
	tm, err := m.Time(500, Costs{TR: 1, TE: 5, TQ: 2}, Costs{TR: 1, TE: 5, TQ: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tm <= 0 {
		t.Error("no time charged")
	}
}

func TestOIJNOrientationSwapsOverlaps(t *testing.T) {
	p1 := simpleParams()
	p2 := simpleParams()
	p2.Ag = 200 // make sides distinguishable
	ov := Overlaps{Agg: 50, Agb: 30, Abg: 10, Abb: 5}
	m0 := &OIJNModel{P1: p1, P2: p2, Ov: ov, OuterIdx: 0, XOuter: retrieval.SC}
	m1 := &OIJNModel{P1: p1, P2: p2, Ov: ov, OuterIdx: 1, XOuter: retrieval.SC}
	_, pi0, ov0 := m0.orient()
	_, pi1, ov1 := m1.orient()
	if pi0 != p2 || pi1 != p1 {
		t.Error("orientation wrong")
	}
	if ov0.Agb != 30 || ov1.Agb != 10 {
		t.Errorf("overlap transpose wrong: %+v / %+v", ov0, ov1)
	}
}

func TestDirectCov(t *testing.T) {
	if got := directCov(10, 0, 0.8); got != 1 {
		t.Errorf("unlimited top-k coverage %v", got)
	}
	// freq 10, qprec 0.5 → 20 hits; top-k 5 → coverage 0.25.
	if got := directCov(10, 5, 0.5); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("coverage %v, want 0.25", got)
	}
	if got := directCov(2, 100, 0.8); got != 1 {
		t.Errorf("small values fully covered, got %v", got)
	}
	if directCov(0, 5, 0.5) != 0 {
		t.Error("zero frequency has zero coverage")
	}
}

func zgModel() *ZGJNModel {
	return &ZGJNModel{
		P1: simpleParams(), P2: simpleParams(),
		Ov:         Overlaps{Agg: 50, Agb: 20, Abg: 20, Abb: 10},
		Mentioned1: 260, Mentioned2: 260,
	}
}

func TestZGJNReachDocsSaturates(t *testing.T) {
	m := zgModel()
	prev := 0.0
	for _, q := range []int{1, 5, 20, 100, 1000} {
		d, err := m.ReachDocs(0, q)
		if err != nil {
			t.Fatal(err)
		}
		if d < prev {
			t.Fatalf("reach must be monotone: %v after %v", d, prev)
		}
		if d > 260+1e-9 {
			t.Fatalf("reach %v exceeds mentioned pool", d)
		}
		prev = d
	}
	if prev < 200 {
		t.Errorf("many queries should nearly saturate the pool, got %v", prev)
	}
	if _, err := m.ReachDocs(2, 5); err == nil {
		t.Error("expected error for bad side")
	}
}

func TestZGJNCascadeGrowsAndClamps(t *testing.T) {
	m := zgModel()
	c1, err := m.CascadeAfter(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	c5, err := m.CascadeAfter(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if c5.Docs[0] < c1.Docs[0] || c5.Docs[1] < c1.Docs[1] {
		t.Errorf("cascade must grow: %+v -> %+v", c1, c5)
	}
	if c5.Queries[0] > float64(m.P1.Ag+m.P1.Ab)+1e-9 {
		t.Errorf("queries %v exceed value population", c5.Queries[0])
	}
	if c5.Docs[0] > 260+1e-9 || c5.Docs[1] > 260+1e-9 {
		t.Errorf("cascade docs exceed mentioned pools: %+v", c5)
	}
}

func TestZGJNEstimateMonotone(t *testing.T) {
	m := zgModel()
	qLow, err := m.EstimateAtDocs(50, 50)
	if err != nil {
		t.Fatal(err)
	}
	qHigh, err := m.EstimateAtDocs(260, 260)
	if err != nil {
		t.Fatal(err)
	}
	if qHigh.Good <= qLow.Good {
		t.Errorf("estimate should grow with docs: %v -> %v", qLow.Good, qHigh.Good)
	}
	viaQueries, err := m.EstimateAtQueries(1000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(viaQueries.Good-qHigh.Good) > qHigh.Good*0.1 {
		t.Errorf("saturated query estimate %v should approach doc estimate %v", viaQueries.Good, qHigh.Good)
	}
	tm, err := m.Time(50, 50, Costs{TR: 1, TE: 5, TQ: 2}, Costs{TR: 1, TE: 5, TQ: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tm <= 0 {
		t.Error("no time charged")
	}
}

func TestZGJNMissingValuesPerDoc(t *testing.T) {
	m := zgModel()
	m.P1 = simpleParams()
	m.P1.ValuesPerDoc = nil
	if _, err := m.ReachDocs(0, 5); err == nil {
		t.Error("expected error for missing ValuesPerDoc")
	}
}

func TestQualityMeets(t *testing.T) {
	q := Quality{Good: 10, Bad: 5}
	if !q.Meets(10, 5) {
		t.Error("boundary should meet")
	}
	if q.Meets(11, 5) || q.Meets(10, 4) {
		t.Error("violations should not meet")
	}
}

func TestCascadeDistMeansMatchChainRule(t *testing.T) {
	m := zgModel()
	dist, err := m.CascadeDist(2, 3000)
	if err != nil {
		t.Fatal(err)
	}
	dr2, ar2, dr1, ar1, err := m.CascadeMeans(2)
	if err != nil {
		t.Fatal(err)
	}
	// With a generous truncation degree the truncated means match the
	// chain-rule means for the first hops; deeper compositions may lose a
	// little tail mass, so allow small slack.
	check := func(name string, got stat.GenFunc, want float64, tol float64) {
		t.Helper()
		if math.Abs(got.Mean()-want) > tol*want+1e-9 {
			t.Errorf("%s mean %.2f vs chain rule %.2f", name, got.Mean(), want)
		}
	}
	check("Dr2", dist.Dr2, dr2, 0.02)
	check("Ar2", dist.Ar2, ar2, 0.05)
	check("Dr1", dist.Dr1, dr1, 0.15)
	check("Ar1", dist.Ar1, ar1, 0.20)
}

func TestCascadeMeansGrowWithSeeds(t *testing.T) {
	m := zgModel()
	d1, _, _, a1, err := m.CascadeMeans(1)
	if err != nil {
		t.Fatal(err)
	}
	d3, _, _, a3, err := m.CascadeMeans(3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d3-3*d1) > 1e-9 {
		t.Errorf("Dr2 must scale linearly in seeds: %v vs 3×%v", d3, d1)
	}
	if a3 <= a1 {
		t.Errorf("Ar1 should grow with seeds: %v -> %v", a1, a3)
	}
}

func TestCascadeDistValidation(t *testing.T) {
	m := zgModel()
	if _, err := m.CascadeDist(0, 100); err == nil {
		t.Error("expected error for zero seeds")
	}
	if _, _, _, _, err := m.CascadeMeans(0); err == nil {
		t.Error("expected error for zero seeds")
	}
	broken := zgModel()
	broken.P2 = simpleParams()
	broken.P2.ValuesPerDoc = nil
	if _, err := broken.CascadeDist(1, 100); err == nil {
		t.Error("expected error for missing ValuesPerDoc")
	}
}

func TestCascadeDistDeadGraph(t *testing.T) {
	// Documents that never emit values: the cascade dies after the seed
	// sweep — Ar2 is the point mass at zero and Dr1 follows.
	m := zgModel()
	m.P1 = simpleParams()
	m.P2 = simpleParams()
	m.P1.ValuesPerDoc = []float64{1}
	m.P2.ValuesPerDoc = []float64{1}
	dist, err := m.CascadeDist(2, 500)
	if err != nil {
		t.Fatal(err)
	}
	if dist.Ar2.Mean() != 0 {
		t.Errorf("dead graph should generate no values, got mean %v", dist.Ar2.Mean())
	}
	if dist.Dr1.Mean() != 0 {
		t.Errorf("dead graph should retrieve no D1 docs, got mean %v", dist.Dr1.Mean())
	}
	if dist.Dr2.Mean() <= 0 {
		t.Error("the seed sweep itself still retrieves D2 documents")
	}
}

func TestMultiModelHandComputed(t *testing.T) {
	// Three relations with point-mass frequencies, full-scan coverage
	// cg_i = tp_i, and a single all-good class: good = count·Π tp_i·g_i.
	mk := func(tp, fp float64) *RelationParams {
		return &RelationParams{
			D: 100, Dg: 20, Db: 10, Ag: 10, Ab: 5,
			GoodFreq: []float64{0, 1}, // g = 2
			BadFreq:  []float64{1},    // b = 1
			TP:       tp, FP: fp, BadInGoodFrac: 0.5,
		}
	}
	m := &MultiIDJNModel{
		P: []*RelationParams{mk(0.8, 0.4), mk(0.5, 0.2), mk(0.9, 0.1)},
		X: []retrieval.Kind{retrieval.SC, retrieval.SC, retrieval.SC},
		Classes: map[relation.ClassMask]int{
			0b111: 4, // all good
			0b011: 2, // bad in relation 3
		},
	}
	q, err := m.Estimate([]int{100, 100, 100})
	if err != nil {
		t.Fatal(err)
	}
	wantGood := 4.0 * (0.8 * 2) * (0.5 * 2) * (0.9 * 2)
	if math.Abs(q.Good-wantGood) > 1e-9 {
		t.Errorf("good %v, want %v", q.Good, wantGood)
	}
	wantBad := 2.0 * (0.8 * 2) * (0.5 * 2) * (0.1 * 1)
	if math.Abs(q.Bad-wantBad) > 1e-9 {
		t.Errorf("bad %v, want %v", q.Bad, wantBad)
	}
	tm, err := m.Time([]int{100, 100, 100}, []Costs{{TR: 1, TE: 5}, {TR: 1, TE: 5}, {TR: 1, TE: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tm-3*600) > 1e-9 {
		t.Errorf("time %v, want 1800", tm)
	}
}

func TestMultiModelValidation(t *testing.T) {
	p := simpleParams()
	bad := &MultiIDJNModel{P: []*RelationParams{p}}
	if bad.Validate() == nil {
		t.Error("expected error for 1 relation")
	}
	bad = &MultiIDJNModel{P: []*RelationParams{p, p}, X: []retrieval.Kind{retrieval.SC}}
	if bad.Validate() == nil {
		t.Error("expected error for arity mismatch")
	}
	ok := &MultiIDJNModel{P: []*RelationParams{p, p}, X: []retrieval.Kind{retrieval.SC, retrieval.SC}}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := ok.Estimate([]int{100}); err == nil {
		t.Error("expected error for effort arity mismatch")
	}
	if _, err := ok.Time([]int{100, 100}, []Costs{{}}); err == nil {
		t.Error("expected error for cost arity mismatch")
	}
}

func TestOIJNEstimateDistMeanConsistency(t *testing.T) {
	m := &OIJNModel{
		P1: simpleParams(), P2: simpleParams(),
		Ov:       Overlaps{Agg: 50, Agb: 20, Abg: 20, Abb: 10},
		OuterIdx: 0, XOuter: retrieval.SC,
		CasualHits: 1.5, MentionedInner: 230,
	}
	point, err := m.Estimate(500)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := m.EstimateDist(500)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(point.Good-dist.Good) > 1e-9 || dist.VarGood <= 0 {
		t.Errorf("OIJN dist inconsistent: %+v vs %+v", point, dist.Quality)
	}
}

func TestZGJNEstimateDistAtDocsMeanConsistency(t *testing.T) {
	m := zgModel()
	point, err := m.EstimateAtDocs(120, 120)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := m.EstimateDistAtDocs(120, 120)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(point.Good-dist.Good) > 1e-9 || dist.VarGood <= 0 {
		t.Errorf("ZGJN dist inconsistent: %+v vs %+v", point, dist.Quality)
	}
}

func TestTotalOccurrences(t *testing.T) {
	p := simpleParams()
	// E[g] = 0.5+0.6+0.6 = 1.7; totals scale by population.
	if math.Abs(p.MeanGoodFreq()-1.7) > 1e-9 {
		t.Errorf("mean good freq %v", p.MeanGoodFreq())
	}
	if math.Abs(p.TotalGoodOcc()-170) > 1e-9 {
		t.Errorf("total good occ %v", p.TotalGoodOcc())
	}
	if math.Abs(p.MeanBadFreq()-1.3) > 1e-9 {
		t.Errorf("mean bad freq %v", p.MeanBadFreq())
	}
	if math.Abs(p.TotalBadOcc()-78) > 1e-9 {
		t.Errorf("total bad occ %v", p.TotalBadOcc())
	}
	empty := &RelationParams{}
	if empty.MeanBadFreq() != 0 {
		t.Error("empty bad PMF should have zero mean")
	}
}

func TestOIJNTimeMonotoneInOuterEffort(t *testing.T) {
	m := &OIJNModel{
		P1: simpleParams(), P2: simpleParams(),
		Ov:       Overlaps{Agg: 50, Agb: 20, Abg: 20, Abb: 10},
		OuterIdx: 0, XOuter: retrieval.SC,
		CasualHits: 1.5, MentionedInner: 230,
	}
	c := Costs{TR: 1, TE: 5, TQ: 2}
	prev := 0.0
	for _, e := range []int{100, 400, 1000} {
		tm, err := m.Time(e, c, c)
		if err != nil {
			t.Fatal(err)
		}
		if tm <= prev {
			t.Fatalf("OIJN time must grow with outer effort: %v after %v", tm, prev)
		}
		prev = tm
	}
	// Inner work (queries + docs) must be charged on top of the outer scan.
	outerOnly := 1000.0 * (c.TR + c.TE)
	if prev <= outerOnly {
		t.Errorf("OIJN time %v should exceed the outer scan alone (%v)", prev, outerOnly)
	}
}

func TestZGJNTimeComponents(t *testing.T) {
	m := zgModel()
	c := Costs{TR: 1, TE: 5, TQ: 2}
	t10, err := m.Time(10, 10, c, c)
	if err != nil {
		t.Fatal(err)
	}
	t50, err := m.Time(50, 50, c, c)
	if err != nil {
		t.Fatal(err)
	}
	if t50 <= t10 {
		t.Errorf("ZGJN time must grow with queries: %v -> %v", t10, t50)
	}
	// The query charge alone is 2·q·TQ; total must exceed it (documents
	// are retrieved and processed too).
	if t10 <= 2*10*c.TQ {
		t.Errorf("ZGJN time %v missing document costs", t10)
	}
}
