package estimate_test

import (
	"math"
	"sync"
	"testing"

	"joinopt/internal/estimate"
	"joinopt/internal/join"
	"joinopt/internal/model"
	"joinopt/internal/retrieval"
	"joinopt/internal/workload"
)

var (
	once  sync.Once
	wl    *workload.Workload
	wlErr error
)

func testWorkload(t *testing.T) *workload.Workload {
	t.Helper()
	once.Do(func() {
		wl, wlErr = workload.HQJoinEX(workload.Params{NumDocs: 1500, Seed: 3})
	})
	if wlErr != nil {
		t.Fatal(wlErr)
	}
	return wl
}

func observeAt(t *testing.T, w *workload.Workload, pct int) (estimate.Observation, estimate.Observation, *join.State) {
	t.Helper()
	p1, err := w.TrueParams(0, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := w.TrueParams(1, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	x1, _ := w.NewStrategy(0, retrieval.SC)
	x2, _ := w.NewStrategy(1, retrieval.SC)
	e, err := join.NewIDJN(w.Side(0, 0.4), w.Side(1, 0.4), x1, x2)
	if err != nil {
		t.Fatal(err)
	}
	dr := w.DB[0].Size() * pct / 100
	st, err := join.Run(e, func(s *join.State) bool { return s.DocsRetrieved[0] >= dr })
	if err != nil {
		t.Fatal(err)
	}
	o1 := estimate.FromState(st, 0, w.DB[0].Size(), p1.TP, p1.FP, 0.3)
	o2 := estimate.FromState(st, 1, w.DB[1].Size(), p2.TP, p2.FP, 0.3)
	return o1, o2, st
}

func checkRatio(t *testing.T, name string, est, truth float64, lo, hi float64) {
	t.Helper()
	if truth == 0 {
		t.Fatalf("%s: zero truth", name)
	}
	r := est / truth
	if r < lo || r > hi {
		t.Errorf("%s: estimated %.0f vs true %.0f (ratio %.2f outside [%.2f, %.2f])", name, est, truth, r, lo, hi)
	}
}

func TestEstimateRecoversValuePopulations(t *testing.T) {
	w := testWorkload(t)
	for _, pct := range []int{20, 40} {
		o1, _, _ := observeAt(t, w, pct)
		est, err := estimate.Estimate(o1)
		if err != nil {
			t.Fatal(err)
		}
		stats := w.DB[0].Stats("HQ")
		checkRatio(t, "Ag", float64(est.Params.Ag), float64(stats.GoodValues()), 0.5, 2.0)
		total := float64(est.Params.Ag + est.Params.Ab)
		trueTotal := float64(stats.GoodValues() + stats.BadValues())
		checkRatio(t, "Ag+Ab", total, trueTotal, 0.6, 1.8)
		if est.GoodShare <= 0.2 || est.GoodShare >= 0.96 {
			t.Errorf("good share %v degenerate", est.GoodShare)
		}
		if est.AlphaGood < 1.2 || est.AlphaGood > 3.3 {
			t.Errorf("alpha %v outside grid", est.AlphaGood)
		}
	}
}

func TestEstimateRecoversDocumentPartition(t *testing.T) {
	w := testWorkload(t)
	o1, o2, _ := observeAt(t, w, 40)
	for i, o := range []estimate.Observation{o1, o2} {
		est, err := estimate.Estimate(o)
		if err != nil {
			t.Fatal(err)
		}
		stats := w.DB[i].Stats(w.Task[i])
		checkRatio(t, "Dg", float64(est.Params.Dg), float64(stats.NumGood), 0.4, 2.5)
		if est.Params.Db > 0 {
			// The yield surface is nearly flat in Db (bad documents are few
			// and emit rarely), so the band is wide.
			checkRatio(t, "Db", float64(est.Params.Db), float64(stats.NumBad), 0.1, 4.0)
		}
		if est.Params.Dg+est.Params.Db > o.D {
			t.Error("partition exceeds corpus")
		}
	}
}

func TestEstimateOverlapsScale(t *testing.T) {
	w := testWorkload(t)
	o1, o2, _ := observeAt(t, w, 40)
	e1, err := estimate.Estimate(o1)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := estimate.Estimate(o2)
	if err != nil {
		t.Fatal(err)
	}
	ov := estimate.EstimateOverlaps(o1.ValueCounts, o2.ValueCounts, e1, e2)
	trueOv := w.TrueOverlaps()
	checkRatio(t, "Agg", float64(ov.Agg), float64(trueOv.Agg), 0.4, 2.0)
	estTotal := float64(ov.Agg + ov.Agb + ov.Abg + ov.Abb)
	trueTotal := float64(trueOv.Agg + trueOv.Agb + trueOv.Abg + trueOv.Abb)
	checkRatio(t, "total overlap", estTotal, trueTotal, 0.4, 2.0)
}

func TestEstimatedParamsUsableByModels(t *testing.T) {
	w := testWorkload(t)
	o1, o2, _ := observeAt(t, w, 40)
	e1, err := estimate.Estimate(o1)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := estimate.Estimate(o2)
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.Params.Validate(); err != nil {
		t.Fatal(err)
	}
	ov := estimate.EstimateOverlaps(o1.ValueCounts, o2.ValueCounts, e1, e2)
	m := &model.IDJNModel{P1: e1.Params, P2: e2.Params, X1: retrieval.SC, X2: retrieval.SC, Ov: ov}
	q, err := m.Estimate(o1.D, o2.D)
	if err != nil {
		t.Fatal(err)
	}
	if q.Good <= 0 || math.IsNaN(q.Good) || math.IsNaN(q.Bad) {
		t.Errorf("degenerate quality estimate %+v", q)
	}
}

func TestFromStateLabelFree(t *testing.T) {
	w := testWorkload(t)
	o1, _, st := observeAt(t, w, 20)
	if o1.DocsProcessed != st.DocsProcessed[0] || o1.YieldDocs != st.YieldDocs[0] {
		t.Error("observation counters mismatch state")
	}
	// Value counts must equal good+bad occurrence totals.
	values := w.Tables[0].Dict().Values()
	for v, c := range o1.ValueCounts {
		if good, bad := st.R1.Occ(values.ID(v)); c != good+bad {
			t.Fatalf("value %q count %d mismatch", v, c)
		}
	}
}

func TestPairSplitTracksActualComposition(t *testing.T) {
	w := testWorkload(t)
	o1, o2, st := observeAt(t, w, 40)
	e1, err := estimate.Estimate(o1)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := estimate.Estimate(o2)
	if err != nil {
		t.Fatal(err)
	}
	good, bad := estimate.PairSplit(o1, o2, e1, e2)
	total := good + bad
	actualTotal := float64(st.GoodPairs + st.BadPairs)
	if math.Abs(total-actualTotal) > 1e-6 {
		t.Fatalf("pair split total %.1f != observable total %.1f", total, actualTotal)
	}
	// The label-free split should land within a factor 2 of the true
	// composition.
	checkRatio(t, "split good", good, float64(st.GoodPairs), 0.5, 2.0)
	checkRatio(t, "split bad", bad, float64(st.BadPairs), 0.5, 2.0)
}

func TestPairSplitEmptyIntersection(t *testing.T) {
	o := estimate.Observation{
		D: 100, DocsProcessed: 50, TP: 0.8, FP: 0.4,
		ValueCounts: map[string]int{"a": 1},
	}
	o2 := o
	o2.ValueCounts = map[string]int{"b": 1}
	// Build minimal estimates via the public constructor on a richer
	// observation, then split the disjoint pair.
	rich := o
	rich.ValueCounts = map[string]int{}
	for i := 0; i < 20; i++ {
		rich.ValueCounts[string(rune('a'+i))] = 1 + i%3
	}
	e, err := estimate.Estimate(rich)
	if err != nil {
		t.Fatal(err)
	}
	good, bad := estimate.PairSplit(o, o2, e, e)
	if good != 0 || bad != 0 {
		t.Errorf("disjoint value sets must produce no pairs: %v/%v", good, bad)
	}
}

func TestCrossValidateStabilizesWithWindow(t *testing.T) {
	w := testWorkload(t)
	small, _, _ := observeAt(t, w, 10)
	large, _, _ := observeAt(t, w, 60)
	dSmall, err := estimate.CrossValidate(small)
	if err != nil {
		t.Fatal(err)
	}
	dLarge, err := estimate.CrossValidate(large)
	if err != nil {
		t.Fatal(err)
	}
	if dSmall < 0 || dLarge < 0 {
		t.Fatalf("negative divergence: %v %v", dSmall, dLarge)
	}
	// A 6x larger window should not cross-validate markedly worse.
	if dLarge > dSmall+0.3 {
		t.Errorf("divergence grew with window: %.2f -> %.2f", dSmall, dLarge)
	}
	if dLarge > 1.0 {
		t.Errorf("large window divergence %.2f implausibly high", dLarge)
	}
}

func TestCrossValidateThinObservation(t *testing.T) {
	obs := estimate.Observation{
		D: 100, DocsProcessed: 10, TP: 0.8, FP: 0.4,
		ValueCounts: map[string]int{"a": 1, "b": 2, "c": 1, "d": 1},
	}
	if _, err := estimate.CrossValidate(obs); err == nil {
		t.Error("expected error when halves are too thin to fit")
	}
}
