package workload

import (
	"sync"
	"testing"

	"joinopt/internal/join"
	"joinopt/internal/model"
	"joinopt/internal/retrieval"
)

var (
	once  sync.Once
	wl    *Workload
	wlErr error
)

func testWorkload(t *testing.T) *Workload {
	t.Helper()
	once.Do(func() {
		wl, wlErr = HQJoinEX(Params{NumDocs: 1500, Seed: 3})
	})
	if wlErr != nil {
		t.Fatal(wlErr)
	}
	return wl
}

func ratioIn(t *testing.T, name string, est, actual, lo, hi float64) {
	t.Helper()
	if actual <= 0 {
		t.Fatalf("%s: actual is zero", name)
	}
	r := est / actual
	if r < lo || r > hi {
		t.Errorf("%s: estimate %.1f vs actual %.1f (ratio %.2f outside [%.2f, %.2f])", name, est, actual, r, lo, hi)
	}
}

func TestWorkloadConstruction(t *testing.T) {
	w := testWorkload(t)
	for i := 0; i < 2; i++ {
		stats := w.DB[i].Stats(w.Task[i])
		if stats == nil {
			t.Fatalf("side %d missing stats", i)
		}
		if stats.NumGood != 225 || stats.NumBad != 120 {
			t.Errorf("side %d partition Dg=%d Db=%d, want 225/120", i, stats.NumGood, stats.NumBad)
		}
		if len(w.AQGQueries[i]) == 0 {
			t.Errorf("side %d has no AQG queries", i)
		}
		if w.Cls[i] == nil {
			t.Errorf("side %d has no classifier", i)
		}
	}
	if len(w.Seeds) == 0 {
		t.Error("no ZGJN seeds")
	}
	ov := w.TrueOverlaps()
	if ov.Agg == 0 || ov.Agb == 0 || ov.Abg == 0 || ov.Abb == 0 {
		t.Errorf("degenerate overlap sets %+v", ov)
	}
}

func TestWorkloadValidation(t *testing.T) {
	if _, err := HQJoinEX(Params{NumDocs: 100}); err == nil {
		t.Error("expected error for tiny corpus")
	}
}

func TestTrueParamsSanity(t *testing.T) {
	w := testWorkload(t)
	for i := 0; i < 2; i++ {
		p, err := w.TrueParams(i, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("side %d params invalid: %v", i, err)
		}
		if p.TP < 0.7 || p.TP > 0.95 {
			t.Errorf("side %d tp(0.4) = %v, want ~0.85", i, p.TP)
		}
		if p.FP >= p.TP {
			t.Errorf("side %d fp %v should be below tp %v", i, p.FP, p.TP)
		}
		if p.QPrec <= 0.2 || p.QPrec > 1 {
			t.Errorf("side %d query precision %v out of plausible range", i, p.QPrec)
		}
		if len(p.ValuesPerDoc) < 2 {
			t.Errorf("side %d values-per-doc distribution too small: %v", i, p.ValuesPerDoc)
		}
		p8, err := w.TrueParams(i, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		if p8.TP >= p.TP || p8.FP >= p.FP {
			t.Errorf("side %d rates must fall with theta: tp %v->%v fp %v->%v", i, p.TP, p8.TP, p.FP, p8.FP)
		}
	}
	if _, err := w.TrueParams(2, 0.4); err == nil {
		t.Error("expected error for bad side")
	}
}

// TestIDJNModelAccuracy is the in-test version of Figure 9: estimated vs
// actual good and bad join tuples for IDJN with Scan at minSim 0.4.
func TestIDJNModelAccuracy(t *testing.T) {
	w := testWorkload(t)
	p1, err := w.TrueParams(0, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := w.TrueParams(1, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	m := &model.IDJNModel{P1: p1, P2: p2, X1: retrieval.SC, X2: retrieval.SC, Ov: w.TrueOverlaps()}
	for _, pct := range []int{50, 100} {
		dr := w.DB[0].Size() * pct / 100
		x1, _ := w.NewStrategy(0, retrieval.SC)
		x2, _ := w.NewStrategy(1, retrieval.SC)
		e, err := join.NewIDJN(w.Side(0, 0.4), w.Side(1, 0.4), x1, x2)
		if err != nil {
			t.Fatal(err)
		}
		st, err := join.Run(e, func(s *join.State) bool { return s.DocsRetrieved[0] >= dr })
		if err != nil {
			t.Fatal(err)
		}
		est, err := m.Estimate(dr, dr)
		if err != nil {
			t.Fatal(err)
		}
		ratioIn(t, "IDJN good", est.Good, float64(st.GoodPairs), 0.5, 2.0)
		// Bad tuples overestimate by design: the rates are characterized on
		// the training split, blind to the target outliers (§VII).
		ratioIn(t, "IDJN bad", est.Bad, float64(st.BadPairs), 0.8, 3.0)
	}
}

// TestOIJNModelAccuracy is the in-test version of Figure 10.
func TestOIJNModelAccuracy(t *testing.T) {
	w := testWorkload(t)
	p1, err := w.TrueParams(0, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := w.TrueParams(1, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	m := &model.OIJNModel{
		P1: p1, P2: p2, Ov: w.TrueOverlaps(), OuterIdx: 0, XOuter: retrieval.SC,
		CasualHits: w.CasualHits(1), MentionedInner: w.MentionedDocs(1),
	}
	for _, pct := range []int{50, 100} {
		dr := w.DB[0].Size() * pct / 100
		x, _ := w.NewStrategy(0, retrieval.SC)
		e, err := join.NewOIJN(w.Side(0, 0.4), w.Side(1, 0.4), 0, x)
		if err != nil {
			t.Fatal(err)
		}
		st, err := join.Run(e, func(s *join.State) bool { return s.DocsRetrieved[0] >= dr })
		if err != nil {
			t.Fatal(err)
		}
		est, err := m.Estimate(dr)
		if err != nil {
			t.Fatal(err)
		}
		ratioIn(t, "OIJN good", est.Good, float64(st.GoodPairs), 0.5, 2.0)
		ratioIn(t, "OIJN bad", est.Bad, float64(st.BadPairs), 0.8, 3.0)
		if est.Bad <= float64(st.BadPairs) {
			t.Logf("note: OIJN bad estimate %.0f did not overestimate actual %d on this seed", est.Bad, st.BadPairs)
		}
		q, docs, err := m.InnerWork(dr)
		if err != nil {
			t.Fatal(err)
		}
		ratioIn(t, "OIJN inner queries", q, float64(st.Queries[1]), 0.7, 1.5)
		ratioIn(t, "OIJN inner docs", docs, float64(st.DocsRetrieved[1]), 0.6, 1.6)
	}
}

// TestZGJNModelAccuracy covers Figures 11 and 12: quality and reach of the
// zig-zag join.
func TestZGJNModelAccuracy(t *testing.T) {
	w := testWorkload(t)
	p1, err := w.TrueParams(0, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := w.TrueParams(1, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	m := &model.ZGJNModel{
		P1: p1, P2: p2, Ov: w.TrueOverlaps(),
		Mentioned1: w.MentionedDocs(0), Mentioned2: w.MentionedDocs(1),
	}
	e, err := join.NewZGJN(w.Side(0, 0.4), w.Side(1, 0.4), w.Seeds)
	if err != nil {
		t.Fatal(err)
	}
	st, err := join.Run(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 12: documents retrieved at the actual query counts.
	d1, err := m.ReachDocs(0, st.Queries[0])
	if err != nil {
		t.Fatal(err)
	}
	d2, err := m.ReachDocs(1, st.Queries[1])
	if err != nil {
		t.Fatal(err)
	}
	ratioIn(t, "ZGJN docs side 1", d1, float64(st.DocsRetrieved[0]), 0.7, 1.5)
	ratioIn(t, "ZGJN docs side 2", d2, float64(st.DocsRetrieved[1]), 0.7, 1.5)

	// Figure 11: quality at the actual query counts.
	est, err := m.EstimateAtQueries(st.Queries[0], st.Queries[1])
	if err != nil {
		t.Fatal(err)
	}
	ratioIn(t, "ZGJN good", est.Good, float64(st.GoodPairs), 0.5, 2.0)
	ratioIn(t, "ZGJN bad", est.Bad, float64(st.BadPairs), 0.8, 3.0)
}

// TestBadOverestimationShape checks the paper's qualitative finding: with
// rates characterized on the training split, the bad-tuple estimates for the
// query-based algorithms overestimate the actuals (the planted outliers are
// frequent but never extracted).
func TestBadOverestimationShape(t *testing.T) {
	w := testWorkload(t)
	p1, _ := w.TrueParams(0, 0.4)
	p2, _ := w.TrueParams(1, 0.4)
	m := &model.OIJNModel{
		P1: p1, P2: p2, Ov: w.TrueOverlaps(), OuterIdx: 0, XOuter: retrieval.SC,
		CasualHits: w.CasualHits(1), MentionedInner: w.MentionedDocs(1),
	}
	x, _ := w.NewStrategy(0, retrieval.SC)
	e, _ := join.NewOIJN(w.Side(0, 0.4), w.Side(1, 0.4), 0, x)
	st, err := join.Run(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	est, err := m.Estimate(w.DB[0].Size())
	if err != nil {
		t.Fatal(err)
	}
	if est.Bad <= float64(st.BadPairs) {
		t.Errorf("expected bad-tuple overestimation: est %.0f vs actual %d", est.Bad, st.BadPairs)
	}
}

func TestMentionedDocsBounds(t *testing.T) {
	w := testWorkload(t)
	for i := 0; i < 2; i++ {
		m := w.MentionedDocs(i)
		stats := w.DB[i].Stats(w.Task[i])
		if m < stats.NumGood+stats.NumBad {
			t.Errorf("side %d mentioned %d below Dg+Db", i, m)
		}
		if m > w.DB[i].Size() {
			t.Errorf("side %d mentioned %d exceeds corpus", i, m)
		}
	}
}

func TestCasualHitsPositive(t *testing.T) {
	w := testWorkload(t)
	if h := w.CasualHits(1); h <= 0 || h > 20 {
		t.Errorf("casual hits %v implausible", h)
	}
}

func TestNewStrategyKinds(t *testing.T) {
	w := testWorkload(t)
	for _, k := range []retrieval.Kind{retrieval.SC, retrieval.FS, retrieval.AQG} {
		s, err := w.NewStrategy(0, k)
		if err != nil {
			t.Fatalf("strategy %s: %v", k, err)
		}
		if s.Kind() != k {
			t.Errorf("kind mismatch for %s", k)
		}
	}
	if _, err := w.NewStrategy(0, retrieval.Kind("XX")); err == nil {
		t.Error("expected error for unknown kind")
	}
}

func TestMGJoinEXWorkload(t *testing.T) {
	w, err := MGJoinEX(Params{NumDocs: 800, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if w.Task[0] != "MG" || w.Task[1] != "EX" {
		t.Fatalf("tasks %v", w.Task)
	}
	stats := w.DB[0].Stats("MG")
	if stats == nil || stats.NumGood == 0 {
		t.Fatal("MG database not generated")
	}
	// MG second attributes are companies from the reserved tail: they must
	// not collide with any join value of either relation.
	joinVals := map[string]bool{}
	for v := range stats.GoodFreq {
		joinVals[v] = true
	}
	for v := range stats.BadFreq {
		joinVals[v] = true
	}
	for tup := range w.DB[0].Gold("MG").Good {
		if joinVals[tup.A2] {
			t.Fatalf("MG second attribute %q collides with a join value", tup.A2)
		}
	}
	ov := w.TrueOverlaps()
	if ov.Agg == 0 {
		t.Error("MG⋈EX has no good-good overlap")
	}
}

func TestPairValidation(t *testing.T) {
	if _, err := Pair(Params{NumDocs: 800}, "HQ", "HQ"); err == nil {
		t.Error("expected error for identical tasks")
	}
	if _, err := Pair(Params{NumDocs: 800}, "HQ", "XX"); err == nil {
		t.Error("expected error for unknown task")
	}
}

func TestAsymmetricSizes(t *testing.T) {
	w, err := HQJoinEX(Params{NumDocs: 600, NumDocs2: 1800, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if w.DB[0].Size() != 600 || w.DB[1].Size() != 1800 {
		t.Fatalf("sizes %d/%d", w.DB[0].Size(), w.DB[1].Size())
	}
	// Same relation content in a bigger haystack: the second side's good
	// document count matches the first's.
	if w.DB[0].Stats("HQ").NumGood != w.DB[1].Stats("EX").NumGood {
		t.Errorf("good doc counts diverge: %d vs %d",
			w.DB[0].Stats("HQ").NumGood, w.DB[1].Stats("EX").NumGood)
	}
	if _, err := HQJoinEX(Params{NumDocs: 800, NumDocs2: 500}); err == nil {
		t.Error("expected error for NumDocs2 < NumDocs")
	}
}
