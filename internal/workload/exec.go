package workload

import (
	"fmt"
	"sync"

	"joinopt/internal/classifier"
	"joinopt/internal/extract"
	"joinopt/internal/join"
	"joinopt/internal/model"
	"joinopt/internal/optimizer"
	"joinopt/internal/pipeline"
	"joinopt/internal/relation"
	"joinopt/internal/retrieval"
	"joinopt/internal/shard"
)

// NewExecutor builds a fresh join executor for a plan over this workload,
// carrying the workload's fault profile, retry policy, and deadline.
func (w *Workload) NewExecutor(plan optimizer.PlanSpec) (join.Executor, error) {
	s1 := w.Side(0, plan.Theta[0])
	s2 := w.Side(1, plan.Theta[1])
	var e join.Executor
	var err error
	switch plan.JN {
	case optimizer.IDJN:
		var x1, x2 retrieval.Strategy
		if x1, err = w.NewStrategy(0, plan.X[0]); err != nil {
			return nil, err
		}
		if x2, err = w.NewStrategy(1, plan.X[1]); err != nil {
			return nil, err
		}
		e, err = join.NewIDJN(s1, s2, x1, x2)
	case optimizer.OIJN:
		var x retrieval.Strategy
		if x, err = w.NewStrategy(plan.OuterIdx, plan.X[plan.OuterIdx]); err != nil {
			return nil, err
		}
		e, err = join.NewOIJN(s1, s2, plan.OuterIdx, x)
	case optimizer.ZGJN:
		e, err = join.NewZGJN(s1, s2, w.Seeds)
	default:
		return nil, fmt.Errorf("workload: unknown algorithm %q", plan.JN)
	}
	if err != nil {
		return nil, err
	}
	st := e.State()
	st.Deadline = w.Deadline
	st.Trace = w.Trace
	st.Metrics = w.execMetrics()
	st.Pipeline = shard.NewGroup(w.Shards, w.Cache, w.ExecWorkers, w.extractFn())
	// Bind the trace clock to this executor's cost-model time so sites
	// without State access (fault injectors, retrieval wrappers) stamp their
	// events consistently with the executor's own.
	w.Trace.SetClock(func() float64 { return st.Time })
	return e, nil
}

// extractFn returns the pure extraction function pipelined engines run on
// worker goroutines: the canonical (side, doc, θ) extraction, no fault or
// accounting state touched.
func (w *Workload) extractFn() func(pipeline.Key) []relation.Tuple {
	return func(k pipeline.Key) []relation.Tuple {
		return w.Tables[k.Side].Extract(k.DocID, k.Theta)
	}
}

// envStatics is the run-independent part of the optimizer environment:
// the training-split IE characterization, classifier rates, AQG query
// compositions, and the casual-hit/mention measurements. Measuring them
// walks both training corpora, so the memo matters for a service that runs
// many adaptive jobs over one shared workload; sync.Once also makes the
// measurement safe under concurrent NewEnv calls. The perfect-knowledge
// statistics (trueStatics) build on it.
type envStatics struct {
	once       sync.Once
	err        error
	rates      [2]*extract.Rates
	ctp, cfp   [2]float64
	aqg        [2][]model.QueryParam
	casualHits [2]float64
	mentioned  [2]int
}

// envStatics resolves (measuring once) the shared static measurements.
func (w *Workload) envStatics() (*envStatics, error) {
	s := w.statics
	s.once.Do(func() {
		for i := 0; i < 2; i++ {
			if s.rates[i], s.err = extract.MeasureRates(w.Sys[i], w.Train[i]); s.err != nil {
				return
			}
			if s.ctp[i], s.cfp[i], s.err = classifier.Measure(w.Cls[i], w.Train[i], w.Task[i]); s.err != nil {
				return
			}
			if s.aqg[i], s.err = w.aqgParams(i); s.err != nil {
				return
			}
			s.casualHits[i] = w.CasualHits(i)
			s.mentioned[i] = w.MentionedDocs(i)
		}
	})
	if s.err != nil {
		return nil, s.err
	}
	return s, nil
}

// NewEnv assembles the adaptive optimizer's environment over this workload:
// executor construction, the training-split IE characterization, and the
// offline-measurable retrieval and join parameters. Database-specific
// parameters are left to the on-the-fly estimator. The static measurements
// are memoized on the workload (shared with its clones), so repeated and
// concurrent NewEnv calls pay for them once.
func (w *Workload) NewEnv(thetas []float64) (*optimizer.Env, error) {
	st, err := w.envStatics()
	if err != nil {
		return nil, err
	}
	rates := st.rates
	env := &optimizer.Env{
		NewExecutor: w.NewExecutor,
		Trace:       w.Trace,
		Metrics:     w.Metrics,
		NumDocs:     [2]int{w.DB[0].Size(), w.DB[1].Size()},
		Rates: func(side int, theta float64) (float64, float64) {
			return rates[side].TP(theta), rates[side].FP(theta)
		},
		Thetas:         thetas,
		Costs:          [2]model.Costs{w.Costs[0], w.Costs[1]},
		CasualHits:     st.casualHits,
		Mentioned:      st.mentioned,
		SeedCount:      len(w.Seeds),
		TopK:           [2]int{w.Ix[0].TopK(), w.Ix[1].TopK()},
		BadInGoodPrior: 0.3,
	}
	if c := w.Cache; c != nil {
		env.CacheHitRate = func(int) float64 { return c.HitRate() }
	}
	for i := 0; i < 2; i++ {
		env.AQG[i] = st.aqg[i]
		// Value-query precision prior from the training corpus shape.
		env.QPrec[i] = 0.5
		// Classifier rates characterized on the held-out training split.
		env.Ctp[i], env.Cfp[i] = st.ctp[i], st.cfp[i]
	}
	return env, nil
}
