package estimate_test

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"slices"
	"testing"

	"joinopt/internal/estimate"
	"joinopt/internal/faults"
	"joinopt/internal/join"
	"joinopt/internal/optimizer"
	"joinopt/internal/relation"
	"joinopt/internal/retrieval"
	"joinopt/internal/workload"
)

// The estimator reads value counts as slices indexed by value ID. The
// oracles below are the string-keyed computations those slices replaced:
// counts in a map keyed by value, built as relation.Extracted.ValueCounts
// built them, and every statistic the estimator derives from the counts
// computed over that map.

// oracleCounts keys x's occurrence counts s(a) = gr(a) + br(a) by value,
// omitting values x never counted.
func oracleCounts(x *relation.Extracted) map[string]int {
	out := map[string]int{}
	for v, name := range x.Dict().Values().Names() {
		if good, bad := x.Occ(int32(v)); good+bad > 0 {
			out[name] = good + bad
		}
	}
	return out
}

func oracleHist(counts map[string]int) estimate.Histogram {
	var h estimate.Histogram
	for _, c := range counts {
		if c > estimate.MaxFreq {
			c = estimate.MaxFreq
		}
		if c >= 1 {
			h.Hist[c]++
		}
	}
	h.N = len(counts)
	return h
}

// oracleHalves splits the values by the fnv-32a parity of their names.
func oracleHalves(counts map[string]int) [2]estimate.Histogram {
	half := [2]map[string]int{{}, {}}
	for v, c := range counts {
		h := fnv.New32a()
		h.Write([]byte(v))
		half[h.Sum32()&1][v] = c
	}
	return [2]estimate.Histogram{oracleHist(half[0]), oracleHist(half[1])}
}

func oracleOverlap(counts1, counts2 map[string]int) int {
	n := 0
	for v := range counts1 {
		if _, ok := counts2[v]; ok {
			n++
		}
	}
	return n
}

func oracleTally(counts1, counts2 map[string]int) [][3]int {
	type countPair struct{ c1, c2 int }
	shared := map[countPair]int{}
	for v, c1 := range counts1 {
		if c2, ok := counts2[v]; ok {
			shared[countPair{c1, c2}]++
		}
	}
	var out [][3]int
	for k, n := range shared {
		out = append(out, [3]int{k.c1, k.c2, n})
	}
	slices.SortFunc(out, func(a, b [3]int) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
	return out
}

// obsStats is what the estimator reads of a state's two observations.
type obsStats struct {
	Hist    [2]estimate.Histogram
	Halves  [2][2]estimate.Histogram
	Overlap int
	Tally   [][3]int
}

// statsOf returns st's statistics as the estimator computes them from
// FromState's observations, and as the oracles compute them.
func statsOf(t *testing.T, st *join.State) (got, want obsStats) {
	t.Helper()
	var obs [2]estimate.Observation
	var counts [2]map[string]int
	for i, x := range []*relation.Extracted{st.R1, st.R2} {
		obs[i] = estimate.FromState(st, i, 1500, 0.8, 0.3, 0.3)
		counts[i] = oracleCounts(x)
		got.Hist[i] = estimate.CountHist(obs[i].Counts)
		want.Hist[i] = oracleHist(counts[i])
		halves, err := estimate.CrossValidationHalves(obs[i])
		if err != nil {
			t.Fatal(err)
		}
		got.Halves[i] = halves
		want.Halves[i] = oracleHalves(counts[i])
	}
	got.Overlap = estimate.ObservedOverlap(obs[0].Counts, obs[1].Counts)
	want.Overlap = oracleOverlap(counts[0], counts[1])
	got.Tally = estimate.PairTally(obs[0].Counts, obs[1].Counts)
	want.Tally = oracleTally(counts[0], counts[1])
	return got, want
}

// TestObservationMatchesStringKeyedOracle: what the estimator reads of an
// observation over value IDs (each side's count histogram and number of
// observed values, both cross-validation halves, the observed overlap and
// PairSplit's (c1, c2) tally) equals the string-keyed oracles' result, on
// finished IDJN, OIJN and ZGJN runs and on a fault-degraded run. Two tasks
// run the plans in opposite orders, so their tables number the values
// differently; each plan's statistics must also agree across the tasks.
func TestObservationMatchesStringKeyedOracle(t *testing.T) {
	plans := []optimizer.PlanSpec{
		{JN: optimizer.IDJN, Theta: [2]float64{0.4, 0.4}, X: [2]retrieval.Kind{retrieval.SC, retrieval.SC}},
		{JN: optimizer.OIJN, Theta: [2]float64{0.4, 0.8}, X: [2]retrieval.Kind{retrieval.SC, retrieval.FS}, OuterIdx: 1},
		{JN: optimizer.ZGJN, Theta: [2]float64{0.8, 0.4}},
	}
	run := func(w *workload.Workload, plan optimizer.PlanSpec) *join.State {
		t.Helper()
		e, err := w.NewExecutor(plan)
		if err != nil {
			t.Fatal(err)
		}
		st, err := join.Run(e, nil)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	check := func(what string, st *join.State) obsStats {
		t.Helper()
		got, want := statsOf(t, st)
		if got.Hist[0].N == 0 || got.Hist[1].N == 0 || got.Overlap == 0 {
			t.Fatalf("%s: observed %d and %d values, %d on both sides; the check needs values on both", what, got.Hist[0].N, got.Hist[1].N, got.Overlap)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: statistics over value IDs differ from the string-keyed oracle's:\n got  %+v\n want %+v", what, got, want)
		}
		return got
	}

	var perTask [2]map[string]obsStats
	for task, order := range [][]int{{0, 1, 2}, {2, 1, 0}} {
		w, err := workload.HQJoinEX(workload.Params{NumDocs: 1500, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		perTask[task] = map[string]obsStats{}
		for _, i := range order {
			perTask[task][plans[i].String()] = check(fmt.Sprintf("task %d, %s", task+1, plans[i]), run(w, plans[i]))
		}
		if task > 0 {
			continue
		}
		w.Faults = &faults.Profile{Seed: 7}
		for side := range w.Faults.Fetch {
			w.Faults.Fetch[side] = faults.Spec{Prob: 0.05, Burst: 6} // outlasts the retries
		}
		st := run(w, plans[0])
		if !st.Degraded {
			t.Fatal("the faulty run lost no document")
		}
		check("degraded "+plans[0].String(), st)
	}
	for _, p := range plans {
		if got, want := perTask[1][p.String()], perTask[0][p.String()]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: statistics depend on the order the tables filled in:\n %+v\n %+v", p, got, want)
		}
	}
}

// TestEstimatePairSplitMatchesSeparate: the fused split Env.achieved takes
// is Estimate on each side followed by PairSplit, bit for bit: on the 8k
// pilot observation, on windows of several coverages, at fp = 0, and on a
// NaN rate, whose fit has no winning grid point. A side too thin to fit
// fails it with Estimate's error, reported for the first such side.
func TestEstimatePairSplitMatchesSeparate(t *testing.T) {
	pilot := pilot8k(t)
	type pair struct {
		name   string
		o1, o2 estimate.Observation
	}
	cases := []pair{{"8k pilot", pilot[0], pilot[1]}}
	w := testWorkload(t)
	for _, pct := range []int{10, 25, 40, 70, 100} {
		o1, o2, _ := observeAt(t, w, pct)
		cases = append(cases, pair{fmt.Sprintf("%d%% window", pct), o1, o2})
	}
	zeroFP := pair{"fp = 0", pilot[0], pilot[1]}
	zeroFP.o1.FP, zeroFP.o2.FP = 0, 0
	nanRate := pair{"NaN tp", pilot[0], pilot[1]}
	nanRate.o2.TP = math.NaN()
	thin := pilot[0]
	thin.Counts = thin.Counts[:1]
	cases = append(cases, zeroFP, nanRate, pair{"thin side 1", thin, pilot[1]},
		pair{"thin side 2", pilot[0], thin}, pair{"both thin", thin, thin})

	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, c := range cases {
		good, bad, failed, err := estimate.EstimatePairSplit(c.o1, c.o2)
		e1, err1 := estimate.Estimate(c.o1)
		e2, err2 := estimate.Estimate(c.o2)
		if err1 != nil || err2 != nil {
			first, firstErr := 0, err1
			if err1 == nil {
				first, firstErr = 1, err2
			}
			if err == nil || err.Error() != firstErr.Error() || failed != first {
				t.Errorf("%s: EstimatePairSplit failed side %d with %v, want side %d with %v", c.name, failed, err, first, firstErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if c.name == nanRate.name && e2.AlphaGood != 0 {
			t.Fatalf("%s: the fit found a winning grid point (alpha %v); the case no longer covers the fallback laws", c.name, e2.AlphaGood)
		}
		wantGood, wantBad := estimate.PairSplit(c.o1, c.o2, e1, e2)
		if !sameBits(good, wantGood) || !sameBits(bad, wantBad) {
			t.Errorf("%s: EstimatePairSplit = (%v, %v), Estimate and PairSplit give (%v, %v)", c.name, good, bad, wantGood, wantBad)
		}
	}
}
