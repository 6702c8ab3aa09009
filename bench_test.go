// Benchmarks regenerating every table and figure of the paper's evaluation
// (one testing.B bench per artifact), plus ablation benches for the design
// choices called out in DESIGN.md. Each bench reports, beyond wall-clock
// time, the experiment's headline quantities via b.ReportMetric, so a
// `go test -bench . -benchmem` run doubles as a reproduction log.
package joinopt_test

import (
	"context"
	"sync"
	"testing"

	"joinopt/internal/classifier"
	"joinopt/internal/estimate"
	"joinopt/internal/experiments"
	"joinopt/internal/index"
	"joinopt/internal/join"
	"joinopt/internal/model"
	"joinopt/internal/optimizer"
	"joinopt/internal/querygraph"
	"joinopt/internal/retrieval"
	"joinopt/internal/workload"
)

var (
	benchOnce sync.Once
	benchWL   *workload.Workload
	benchErr  error
)

// benchWorkload builds one moderate workload shared by every benchmark;
// construction cost is excluded from timings.
func benchWorkload(b *testing.B) *workload.Workload {
	b.Helper()
	benchOnce.Do(func() {
		benchWL, benchErr = workload.HQJoinEX(workload.Params{NumDocs: 2000, Seed: 1})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchWL
}

// BenchmarkFig9IDJNAccuracy regenerates Figure 9 (estimated vs actual good
// and bad join tuples for IDJN with Scan) and reports the mean relative
// error of the good-tuple estimates.
func BenchmarkFig9IDJNAccuracy(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	var err float64
	for i := 0; i < b.N; i++ {
		fig, ferr := experiments.Fig9(w)
		if ferr != nil {
			b.Fatal(ferr)
		}
		err = fig.Series[0].MeanAbsRelErr()
	}
	b.ReportMetric(err, "good-relerr")
}

// BenchmarkFig10OIJNAccuracy regenerates Figure 10 (OIJN accuracy).
func BenchmarkFig10OIJNAccuracy(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	var goodErr, badErr float64
	for i := 0; i < b.N; i++ {
		fig, ferr := experiments.Fig10(w)
		if ferr != nil {
			b.Fatal(ferr)
		}
		goodErr = fig.Series[0].MeanAbsRelErr()
		badErr = fig.Series[1].MeanAbsRelErr()
	}
	b.ReportMetric(goodErr, "good-relerr")
	b.ReportMetric(badErr, "bad-relerr")
}

// BenchmarkFig11ZGJNAccuracy regenerates Figure 11 (ZGJN quality accuracy).
func BenchmarkFig11ZGJNAccuracy(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	var goodErr float64
	for i := 0; i < b.N; i++ {
		fig, ferr := experiments.Fig11(w)
		if ferr != nil {
			b.Fatal(ferr)
		}
		goodErr = fig.Series[0].MeanAbsRelErr()
	}
	b.ReportMetric(goodErr, "good-relerr")
}

// BenchmarkFig12ZGJNDocs regenerates Figure 12 (ZGJN documents retrieved
// vs queries issued).
func BenchmarkFig12ZGJNDocs(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	var relErr float64
	for i := 0; i < b.N; i++ {
		fig, ferr := experiments.Fig12(w)
		if ferr != nil {
			b.Fatal(ferr)
		}
		relErr = fig.Series[0].MeanAbsRelErr()
	}
	b.ReportMetric(relErr, "docs-relerr")
}

// BenchmarkTable2Optimizer regenerates Table II: every plan executed to
// exhaustion, the adaptive pilot estimated, and the optimizer's choice
// compared against all meeting candidates for each of the 24 requirements.
// Reported metrics: how many rows the chosen plan actually met, and the
// largest slowdown the optimizer avoided.
func BenchmarkTable2Optimizer(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	var met, rows, zgjn float64
	var worstAvoided float64
	for i := 0; i < b.N; i++ {
		table, err := experiments.Table2(w)
		if err != nil {
			b.Fatal(err)
		}
		met, rows, zgjn, worstAvoided = 0, 0, 0, 0
		for _, r := range table {
			if r.NoFeasiblePrediction {
				continue
			}
			rows++
			if r.ChosenMet {
				met++
			}
			if r.Chosen.JN == optimizer.ZGJN {
				zgjn++
			}
			if r.SlowerMax > worstAvoided {
				worstAvoided = r.SlowerMax
			}
		}
	}
	b.ReportMetric(met, "rows-met")
	b.ReportMetric(rows, "rows-predicted")
	b.ReportMetric(zgjn, "zgjn-chosen")
	b.ReportMetric(worstAvoided, "max-avoided-slowdown")
}

// BenchmarkAblationExactVsClosedForm compares the paper's full
// hypergeometric×binomial distribution sums against the closed-form mean
// the models use: identical expectations, orders-of-magnitude apart in
// cost.
func BenchmarkAblationExactVsClosedForm(b *testing.B) {
	const (
		pop   = 600
		drawn = 300
		freq  = 20
		rate  = 0.85
	)
	b.Run("exact-sums", func(b *testing.B) {
		var v float64
		for i := 0; i < b.N; i++ {
			v = model.ExactExpectedObserved(pop, drawn, freq, rate)
		}
		b.ReportMetric(v, "expected-occ")
	})
	b.Run("closed-form", func(b *testing.B) {
		var v float64
		for i := 0; i < b.N; i++ {
			v = rate * freq * drawn / pop
		}
		b.ReportMetric(v, "expected-occ")
	})
}

// BenchmarkAblationFrequencyCoupling contrasts the independence assumption
// Pr{g1,g2} = Pr{g1}·Pr{g2} with the correlated alternative Pr{g1,g2} ≈
// Pr{g} (§V-B) on the same workload parameters.
func BenchmarkAblationFrequencyCoupling(b *testing.B) {
	w := benchWorkload(b)
	p1, err := w.TrueParams(0, 0.4)
	if err != nil {
		b.Fatal(err)
	}
	p2, err := w.TrueParams(1, 0.4)
	if err != nil {
		b.Fatal(err)
	}
	for _, correlated := range []bool{false, true} {
		name := "independent"
		if correlated {
			name = "correlated"
		}
		b.Run(name, func(b *testing.B) {
			m := &model.IDJNModel{P1: p1, P2: p2, X1: retrieval.SC, X2: retrieval.SC,
				Ov: w.TrueOverlaps(), Correlated: correlated}
			var q model.Quality
			for i := 0; i < b.N; i++ {
				var err error
				q, err = m.Estimate(p1.D, p2.D)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(q.Good, "est-good")
		})
	}
}

// BenchmarkAblationClassifier compares the two Filtered Scan classifiers:
// rule induction (Ripper-like, the paper's choice) versus naive Bayes, on
// measured Ctp/Cfp over the target database.
func BenchmarkAblationClassifier(b *testing.B) {
	w := benchWorkload(b)
	rules, err := classifier.TrainRules(w.Train[0], w.Task[0], 12, 2, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	bayes, err := classifier.TrainBayes(w.Train[0], w.Task[0], 0)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		c    classifier.Classifier
	}{{"rules", rules}, {"bayes", bayes}}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var ctp, cfp float64
			for i := 0; i < b.N; i++ {
				var err error
				ctp, cfp, err = classifier.Measure(tc.c, w.DB[0], w.Task[0])
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(ctp, "Ctp")
			b.ReportMetric(cfp, "Cfp")
		})
	}
}

// BenchmarkAblationTopK shows how the search interface's result cap bounds
// the zig-zag join's reach — the factor behind ZGJN's fate in Table II.
func BenchmarkAblationTopK(b *testing.B) {
	for _, topK := range []int{5, 10, 50} {
		b.Run(map[int]string{5: "topk-5", 10: "topk-10", 50: "topk-50"}[topK], func(b *testing.B) {
			w, err := workload.HQJoinEX(workload.Params{NumDocs: 2000, Seed: 1, TopK: topK})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var docs, good float64
			for i := 0; i < b.N; i++ {
				e, err := join.NewZGJN(w.Side(0, 0.4), w.Side(1, 0.4), w.Seeds)
				if err != nil {
					b.Fatal(err)
				}
				st, err := join.Run(e, nil)
				if err != nil {
					b.Fatal(err)
				}
				docs = float64(st.DocsProcessed[0] + st.DocsProcessed[1])
				good = float64(st.GoodPairs)
			}
			b.ReportMetric(docs, "docs-reached")
			b.ReportMetric(good, "good-pairs")
		})
	}
}

// BenchmarkExtraction measures the raw IE pipeline (sentence splitting,
// entity tagging, pattern scoring) per document, bypassing the candidate
// cache.
func BenchmarkExtraction(b *testing.B) {
	w := benchWorkload(b)
	docs := w.DB[0].Docs
	sys := w.Sys[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Extract(docs[i%len(docs)].Text, 0.4)
	}
}

// BenchmarkIndexSearch measures conjunctive keyword queries with the top-k
// cap against the workload's search interface.
func BenchmarkIndexSearch(b *testing.B) {
	w := benchWorkload(b)
	values := w.Gaz.Companies
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Ix[1].Search(index.QueryFromValue(values[i%len(values)]))
	}
}

// BenchmarkIDJNFullScan measures a complete IDJN Scan/Scan execution over
// both databases.
func BenchmarkIDJNFullScan(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	var good float64
	for i := 0; i < b.N; i++ {
		x1, _ := w.NewStrategy(0, retrieval.SC)
		x2, _ := w.NewStrategy(1, retrieval.SC)
		e, err := join.NewIDJN(w.Side(0, 0.4), w.Side(1, 0.4), x1, x2)
		if err != nil {
			b.Fatal(err)
		}
		st, err := join.Run(e, nil)
		if err != nil {
			b.Fatal(err)
		}
		good = float64(st.GoodPairs)
	}
	b.ReportMetric(good, "good-pairs")
}

// BenchmarkAdaptiveOptimizer measures the end-to-end adaptive run (pilot,
// MLE estimation, plan choice, execution). The cold variant runs without
// the task's plan-search memo, so every iteration pilots and searches for
// real; the warm one goes through the memo, as repeated Task.Run calls do,
// so after its first iteration it times a memoized pilot and memoized plan
// evaluations.
func BenchmarkAdaptiveOptimizer(b *testing.B) {
	w := benchWorkload(b)
	env, err := w.NewEnv([]float64{0.4, 0.8})
	if err != nil {
		b.Fatal(err)
	}
	cold := *env
	cold.Memo = nil
	for _, bc := range []struct {
		name string
		env  *optimizer.Env
	}{{"cold", &cold}, {"warm", env}} {
		b.Run(bc.name, func(b *testing.B) {
			var good float64
			for i := 0; i < b.N; i++ {
				res, err := optimizer.RunAdaptiveCtx(context.Background(), bc.env, optimizer.Requirement{TauG: 16, TauB: 300}, optimizer.Options{})
				if err != nil {
					b.Fatal(err)
				}
				good = float64(res.Final.GoodPairs)
			}
			b.ReportMetric(good, "good-pairs")
		})
	}
}

// BenchmarkAblationPilotWindow measures how the on-the-fly estimator's
// accuracy depends on the pilot window size: per window, the relative error
// of the estimated value-population total |Ag|+|Ab| against ground truth.
func BenchmarkAblationPilotWindow(b *testing.B) {
	w := benchWorkload(b)
	p1, err := w.TrueParams(0, 0.4)
	if err != nil {
		b.Fatal(err)
	}
	trueTotal := float64(p1.Ag + p1.Ab)
	for _, pct := range []int{5, 15, 40} {
		name := map[int]string{5: "window-5pct", 15: "window-15pct", 40: "window-40pct"}[pct]
		b.Run(name, func(b *testing.B) {
			var relErr, divergence float64
			for i := 0; i < b.N; i++ {
				x1, _ := w.NewStrategy(0, retrieval.SC)
				x2, _ := w.NewStrategy(1, retrieval.SC)
				e, err := join.NewIDJN(w.Side(0, 0.4), w.Side(1, 0.4), x1, x2)
				if err != nil {
					b.Fatal(err)
				}
				dr := w.DB[0].Size() * pct / 100
				st, err := join.Run(e, func(s *join.State) bool { return s.DocsRetrieved[0] >= dr })
				if err != nil {
					b.Fatal(err)
				}
				obs := estimate.FromState(st, 0, w.DB[0].Size(), p1.TP, p1.FP, 0.3)
				est, err := estimate.Estimate(obs)
				if err != nil {
					b.Fatal(err)
				}
				got := float64(est.Params.Ag + est.Params.Ab)
				relErr = mathAbs(got-trueTotal) / trueTotal
				if d, err := estimate.CrossValidate(obs); err == nil {
					divergence = d
				}
			}
			b.ReportMetric(relErr, "pop-relerr")
			b.ReportMetric(divergence, "cv-divergence")
		})
	}
}

func mathAbs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// BenchmarkOptimizerChoose measures a full 64-plan evaluation sweep against
// one requirement — the per-decision cost of the quality-aware optimizer.
func BenchmarkOptimizerChoose(b *testing.B) {
	w := benchWorkload(b)
	in, err := w.TrueInputs([]float64{0.4, 0.8})
	if err != nil {
		b.Fatal(err)
	}
	plans := optimizer.Enumerate([]float64{0.4, 0.8})
	req := optimizer.Requirement{TauG: 32, TauB: 320}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := optimizer.Choose(plans, in, req); err != nil {
			b.Fatal(err)
		}
	}
}

var (
	bench8kOnce sync.Once
	bench8kWL   *workload.Workload
	bench8kIn   *optimizer.Inputs
	bench8kErr  error
)

// bench8kThetas give a 16·4² = 256-plan space — the scale where the
// optimizer's own decision cost starts to matter.
var bench8kThetas = []float64{0.2, 0.4, 0.6, 0.8}

// bench8kWorkload builds the 8k-document corpus shared by the plan-space and
// executor benchmarks; construction cost is excluded from timings.
func bench8kWorkload(b *testing.B) *workload.Workload {
	b.Helper()
	bench8kOnce.Do(func() {
		bench8kWL, bench8kErr = workload.HQJoinEX(workload.Params{NumDocs: 8000, Seed: 1})
		if bench8kErr != nil {
			return
		}
		bench8kIn, bench8kErr = bench8kWL.TrueInputs(bench8kThetas)
	})
	if bench8kErr != nil {
		b.Fatal(bench8kErr)
	}
	return bench8kWL
}

// bench8kInputs builds perfect-knowledge inputs over the 8k-document corpus
// with four knob settings, shared across the plan-space benchmarks.
func bench8kInputs(b *testing.B) *optimizer.Inputs {
	b.Helper()
	bench8kWorkload(b)
	return bench8kIn
}

// BenchmarkChoosePlanSpace8k compares sequential and parallel plan-space
// evaluation over the 256-plan space on the 8k-document corpus.
func BenchmarkChoosePlanSpace8k(b *testing.B) {
	in := bench8kInputs(b)
	plans := optimizer.Enumerate(bench8kThetas)
	req := optimizer.Requirement{TauG: 32, TauB: 320}
	run := func(b *testing.B, workers int) {
		for i := 0; i < b.N; i++ {
			cp := *in
			cp.Workers = workers
			if _, _, err := optimizer.Choose(plans, &cp, req); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("sequential", func(b *testing.B) { run(b, 1) })
	b.Run("parallel", func(b *testing.B) { run(b, 0) })
}

var (
	benchNaryOnce sync.Once
	benchNaryG    *querygraph.Graph
	benchNaryIn   *optimizer.NaryInputs
	benchNaryErr  error
)

// benchNaryInputs builds the four-relation chain workload and its
// perfect-knowledge inputs shared by the n-ary plan-choice benchmark;
// construction cost is excluded from timings.
func benchNaryInputs(b *testing.B) (*querygraph.Graph, *optimizer.NaryInputs) {
	b.Helper()
	benchNaryOnce.Do(func() {
		mw, err := workload.Multi(workload.Params{NumDocs: 2000, Seed: 1}, []string{"HQ", "EX", "MG", "HQ"})
		if err != nil {
			benchNaryErr = err
			return
		}
		if benchNaryG, benchNaryErr = mw.Graph(nil); benchNaryErr != nil {
			return
		}
		benchNaryIn, benchNaryErr = mw.TrueNaryInputs([]float64{0.4, 0.8})
	})
	if benchNaryErr != nil {
		b.Fatal(benchNaryErr)
	}
	return benchNaryG, benchNaryIn
}

// BenchmarkChooseNary measures the DP join-tree enumerator over a k=4 chain:
// a sweep of requirement points against the same tree and leaf-knob space,
// sequential versus parallel plan evaluation. This is the optimizer-side
// cost that pipelined execution must not regress — plan choice runs once
// per adaptive checkpoint regardless of worker count.
func BenchmarkChooseNary(b *testing.B) {
	g, in := benchNaryInputs(b)
	reqs := []optimizer.Requirement{
		{TauG: 8, TauB: 1 << 30},
		{TauG: 32, TauB: 1 << 30},
		{TauG: 64, TauB: 1 << 30},
	}
	run := func(b *testing.B, workers int) {
		in.Workers = workers
		defer func() { in.Workers = 0 }()
		for i := 0; i < b.N; i++ {
			for _, req := range reqs {
				if _, _, err := optimizer.ChooseNary(g, in, req); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("sequential", func(b *testing.B) { run(b, 1) })
	b.Run("parallel", func(b *testing.B) { run(b, 0) })
}

// BenchmarkMLEEstimate measures one maximum-likelihood parameter fit over a
// 20% observation window.
func BenchmarkMLEEstimate(b *testing.B) {
	w := benchWorkload(b)
	p1, err := w.TrueParams(0, 0.4)
	if err != nil {
		b.Fatal(err)
	}
	x1, _ := w.NewStrategy(0, retrieval.SC)
	x2, _ := w.NewStrategy(1, retrieval.SC)
	e, err := join.NewIDJN(w.Side(0, 0.4), w.Side(1, 0.4), x1, x2)
	if err != nil {
		b.Fatal(err)
	}
	dr := w.DB[0].Size() / 5
	st, err := join.Run(e, func(s *join.State) bool { return s.DocsRetrieved[0] >= dr })
	if err != nil {
		b.Fatal(err)
	}
	obs := estimate.FromState(st, 0, w.DB[0].Size(), p1.TP, p1.FP, 0.3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := estimate.Estimate(obs); err != nil {
			b.Fatal(err)
		}
	}
}
