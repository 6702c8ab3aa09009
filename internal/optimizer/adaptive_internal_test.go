package optimizer

import (
	"fmt"
	"math"
	"testing"

	"joinopt/internal/join"
	"joinopt/internal/model"
	"joinopt/internal/relation"
	"joinopt/internal/retrieval"
)

func scState(docs, queries [2]int) *join.State {
	st := &join.State{}
	st.DocsRetrieved = docs
	st.Queries = queries
	return st
}

func TestEffortUnitPerPlanShape(t *testing.T) {
	st := scState([2]int{100, 50}, [2]int{7, 3})

	idjnSC := PlanSpec{JN: IDJN, X: [2]retrieval.Kind{retrieval.SC, retrieval.FS}}
	if effortUnit(idjnSC, st, 0) != 100 || effortUnit(idjnSC, st, 1) != 50 {
		t.Error("IDJN scan sides should report retrieved docs")
	}
	idjnAQG := PlanSpec{JN: IDJN, X: [2]retrieval.Kind{retrieval.AQG, retrieval.SC}}
	if effortUnit(idjnAQG, st, 0) != 7 {
		t.Error("IDJN AQG side should report queries")
	}
	oijn := PlanSpec{JN: OIJN, OuterIdx: 1, X: [2]retrieval.Kind{"", retrieval.SC}}
	if effortUnit(oijn, st, 1) != 50 {
		t.Error("OIJN outer side should report retrieved docs")
	}
	if effortUnit(oijn, st, 0) != 0 {
		t.Error("OIJN inner side has no planned effort unit")
	}
	zg := PlanSpec{JN: ZGJN}
	if effortUnit(zg, st, 0) != 7 || effortUnit(zg, st, 1) != 3 {
		t.Error("ZGJN sides should report queries")
	}
}

func TestEffortReachedAndFraction(t *testing.T) {
	plan := PlanSpec{JN: IDJN, X: [2]retrieval.Kind{retrieval.SC, retrieval.SC}}
	st := scState([2]int{50, 100}, [2]int{0, 0})
	effort := [2]int{100, 100}
	if effortReached(plan, st, effort) {
		t.Error("half effort should not be reached")
	}
	if f := effortFraction(plan, st, effort); f != 0.5 {
		t.Errorf("fraction %v, want 0.5 (minimum across sides)", f)
	}
	st = scState([2]int{120, 100}, [2]int{0, 0})
	if !effortReached(plan, st, effort) {
		t.Error("effort reached on both sides")
	}
	// Zero-effort sides are ignored.
	oijn := PlanSpec{JN: OIJN, OuterIdx: 0, X: [2]retrieval.Kind{retrieval.SC, ""}}
	st = scState([2]int{80, 0}, [2]int{0, 0})
	if !effortReached(oijn, st, [2]int{80, 0}) {
		t.Error("OIJN outer effort reached; inner side must be ignored")
	}
	if f := effortFraction(oijn, st, [2]int{160, 0}); f != 0.5 {
		t.Errorf("OIJN fraction %v", f)
	}
	// No planned effort at all: fraction saturates.
	if f := effortFraction(plan, st, [2]int{0, 0}); f != 1 {
		t.Errorf("empty effort fraction %v", f)
	}
}

func TestEffectiveDocs(t *testing.T) {
	st := &join.State{}
	st.DocsProcessed = [2]int{100, 50}
	if got := effectiveDocs(st, 0, 1000); got != 1000 {
		t.Errorf("zero loss must be the identity, got %d", got)
	}
	st.DocsFailed = [2]int{25, 0}
	// 25 of 125 seen documents were lost: the reachable population is 80%.
	if got := effectiveDocs(st, 0, 1000); got != 800 {
		t.Errorf("effectiveDocs = %d, want 800", got)
	}
	if got := effectiveDocs(st, 1, 1000); got != 1000 {
		t.Errorf("loss on side 0 must not touch side 1, got %d", got)
	}
	// Floors: never below the processed count, never below 1.
	heavy := &join.State{}
	heavy.DocsProcessed = [2]int{90, 0}
	heavy.DocsFailed = [2]int{910, 1}
	if got := effectiveDocs(heavy, 0, 100); got != 90 {
		t.Errorf("processed documents are reachable by construction, got %d", got)
	}
	if got := effectiveDocs(heavy, 1, 1); got != 1 {
		t.Errorf("total loss must still leave a population of 1, got %d", got)
	}
}

func TestScanLike(t *testing.T) {
	cases := []struct {
		plan PlanSpec
		want bool
	}{
		{PlanSpec{JN: IDJN, X: [2]retrieval.Kind{retrieval.SC, retrieval.FS}}, true},
		{PlanSpec{JN: IDJN, X: [2]retrieval.Kind{retrieval.SC, retrieval.AQG}}, false},
		{PlanSpec{JN: OIJN, OuterIdx: 0, X: [2]retrieval.Kind{retrieval.FS, ""}}, true},
		{PlanSpec{JN: OIJN, OuterIdx: 1, X: [2]retrieval.Kind{"", retrieval.AQG}}, false},
		{PlanSpec{JN: ZGJN}, false},
	}
	for _, c := range cases {
		if got := scanLike(c.plan); got != c.want {
			t.Errorf("scanLike(%s) = %v, want %v", c.plan, got, c.want)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	o.defaults()
	if o.PilotFraction != 0.10 || o.RecheckFraction != 0.25 || o.MaxSwitches != 2 {
		t.Errorf("defaults %+v", o)
	}
	custom := Options{PilotFraction: 0.2, RecheckFraction: 0.5, MaxSwitches: 1}
	custom.defaults()
	if custom.PilotFraction != 0.2 || custom.MaxSwitches != 1 {
		t.Errorf("custom options overridden: %+v", custom)
	}
}

// TestFallbackSplitZeroRates is the regression test for the achieved-quality
// NaN: when the estimator has too little data, achieved falls back to
// splitting the raw pair count by tp/(tp+fp) — with tp = fp = 0 (e.g. a knob
// setting whose training characterization found no extractions yet) that
// ratio was NaN, so the adaptive driver's τg stopping condition could never
// fire. The guarded split must stay finite.
func TestFallbackSplitZeroRates(t *testing.T) {
	good, bad := fallbackSplit(10, 0, 0)
	if math.IsNaN(good) || math.IsNaN(bad) {
		t.Fatalf("zero-rate fallback is NaN: good=%v bad=%v", good, bad)
	}
	if good != 0 || bad != 10 {
		t.Errorf("zero-rate split (%v, %v), want (0, 10): with no evidence of true positives all output counts as bad", good, bad)
	}
	// Normal cases are unchanged by the guard.
	if g, b := fallbackSplit(10, 0.5, 0.5); g != 5 || b != 5 {
		t.Errorf("balanced split (%v, %v)", g, b)
	}
	if g, b := fallbackSplit(8, 0.9, 0.1); math.Abs(g-7.2) > 1e-9 || math.Abs(b-0.8) > 1e-9 {
		t.Errorf("skewed split (%v, %v)", g, b)
	}
	if g, b := fallbackSplit(0, 0, 0); g != 0 || b != 0 {
		t.Errorf("empty output split (%v, %v)", g, b)
	}
}

// TestAchievedFallbackUsesFailingSide: when a side's observation is too
// thin to fit, achieved splits the raw pair count by the rates of the first
// side whose fit failed.
func TestAchievedFallbackUsesFailingSide(t *testing.T) {
	rates := [2][2]float64{{0.9, 0.1}, {0.6, 0.4}}
	for _, thin := range [][2]bool{{true, false}, {false, true}, {true, true}} {
		values := relation.NewValues()
		st := &join.State{DocsProcessed: [2]int{400, 400}, YieldDocs: [2]int{120, 120}, GoodPairs: 30, BadPairs: 10}
		for side, x := range []**relation.Extracted{&st.R1, &st.R2} {
			d := relation.NewDict(nil, values)
			*x = relation.NewExtracted(d)
			n := 40
			if thin[side] {
				n = 5
			}
			for v := 0; v < n; v++ {
				for k := 0; k <= v%4; k++ {
					(*x).Add(d.Entry(relation.Tuple{A1: fmt.Sprint("v", v), A2: fmt.Sprint(k)}))
				}
			}
		}
		env := &Env{NumDocs: [2]int{1000, 1000}, Rates: func(side int, _ float64) (float64, float64) {
			return rates[side][0], rates[side][1]
		}}
		first := 0
		if !thin[0] {
			first = 1
		}
		good, bad := env.achieved(st, PlanSpec{JN: IDJN, Theta: [2]float64{0.4, 0.4}})
		if wg, wb := fallbackSplit(40, rates[first][0], rates[first][1]); good != wg || bad != wb {
			t.Errorf("thin sides %v: achieved (%v, %v), want side %d's fallback (%v, %v)", thin, good, bad, first+1, wg, wb)
		}
	}
}

func TestRobustQualityCollapse(t *testing.T) {
	// robustQuality uses LCB for good and UCB for bad.
	d := qualityDistForTest(100, 50, 25, 16)
	q := robustQuality(d, 2)
	if q.Good != 90 || q.Bad != 58 {
		t.Errorf("robust quality %+v", q)
	}
}

// qualityDistForTest builds a distributional estimate for robustQuality.
func qualityDistForTest(good, bad, varGood, varBad float64) model.QualityDist {
	return model.QualityDist{
		Quality: model.Quality{Good: good, Bad: bad},
		VarGood: varGood, VarBad: varBad,
	}
}
