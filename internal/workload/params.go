package workload

import (
	"fmt"
	"sort"
	"sync"

	"joinopt/internal/classifier"
	"joinopt/internal/corpus"
	"joinopt/internal/extract"
	"joinopt/internal/index"
	"joinopt/internal/model"
	"joinopt/internal/optimizer"
	"joinopt/internal/relation"
	"joinopt/internal/stat"
)

// trueStatics is the θ-independent part of the "perfect knowledge" model
// parameters: per side every RelationParams field except TP, FP and
// ValuesPerDoc (the classifier rates and value-query precision measured on
// the target database), the training-split rate curves that give tp(θ) and
// fp(θ), and the gold-set overlaps. These are properties of the corpus,
// fixed once the workload is built, so they are measured once, on first
// use, and shared by pointer between a workload and all its clones. Nothing
// writes into the shared slices (GoodFreq, BadFreq, AQG); consumers assign
// whole fields.
type trueStatics struct {
	once sync.Once
	err  error
	env  *envStatics // rates, AQG compositions, casual hits, mentioned docs
	side [2]relationTruth
	ov   relation.OverlapSets
}

// relationTruth is one relation's θ-independent parameters and the rate
// curves that complete them at a knob setting.
type relationTruth struct {
	base  model.RelationParams
	rates *extract.Rates
}

// at returns a fresh copy of the relation's parameters with the IE rates
// at theta set.
func (r *relationTruth) at(theta float64) *model.RelationParams {
	p := r.base
	p.TP, p.FP = r.rates.TP(theta), r.rates.FP(theta)
	return &p
}

// trueStatics resolves (measuring once) the perfect-knowledge statistics.
// It builds on envStatics, so the training-split rates, AQG compositions,
// casual hits and mentioned-document counts have one measurement each.
func (w *Workload) trueStatics() (*trueStatics, error) {
	t := w.truth
	t.once.Do(func() {
		if t.env, t.err = w.envStatics(); t.err != nil {
			return
		}
		for i := 0; i < 2; i++ {
			db, task, ix := w.DB[i], w.Task[i], w.Ix[i]
			p := &t.side[i].base
			if *p, t.err = scanParams(db, task); t.err != nil {
				return
			}
			if p.Ctp, p.Cfp, t.err = classifier.Rates(w.Accept[i], db, task); t.err != nil {
				return
			}
			p.TopK = ix.TopK()
			p.AQG = t.env.aqg[i]
			p.QPrec = valueQueryPrecision(ix, db.Stats(task))
			// Rates are characterized on the training database: the knob
			// behaviour tp(θ)/fp(θ) is a property of the IE system learned
			// at training time, blind to target-corpus quirks such as
			// frequent-but-weak outlier values (§VII's overestimation
			// discussion).
			t.side[i].rates = t.env.rates[i]
		}
		t.ov = w.TrueOverlaps()
	})
	if t.err != nil {
		return nil, t.err
	}
	return t, nil
}

// TrueParams returns the "perfect knowledge" model parameters of side i at
// knob configuration theta — the setup of the paper's model-accuracy
// experiments (§VII), which assume the actual frequency distributions and
// document partitions are known. The measurement walks the corpus
// annotations (standing in for the paper's tuple verification) and the
// search interface once per workload; each call then only sets the
// θ-dependent fields.
func (w *Workload) TrueParams(i int, theta float64) (*model.RelationParams, error) {
	if i != 0 && i != 1 {
		return nil, fmt.Errorf("workload: side must be 0 or 1, got %d", i)
	}
	t, err := w.trueStatics()
	if err != nil {
		return nil, err
	}
	return w.paramsAt(t, i, theta), nil
}

// paramsAt assembles side i's parameters at theta from the statistics.
func (w *Workload) paramsAt(t *trueStatics, i int, theta float64) *model.RelationParams {
	p := t.side[i].at(theta)
	p.ValuesPerDoc = valuesPerDocPMF(w.DB[i], w.Task[i], p.TP, p.FP)
	return p
}

// TrueInputs assembles perfect-knowledge optimizer inputs (used by
// Task.Optimize and the model-accuracy variants of the plan-choice
// experiments) from the once-measured statistics.
func (w *Workload) TrueInputs(thetas []float64) (*optimizer.Inputs, error) {
	t, err := w.trueStatics()
	if err != nil {
		return nil, err
	}
	in := &optimizer.Inputs{
		Thetas:     thetas,
		Ov:         t.ov,
		Costs:      [2]model.Costs{w.Costs[0], w.Costs[1]},
		CasualHits: t.env.casualHits,
		Mentioned:  t.env.mentioned,
		SeedCount:  len(w.Seeds),
	}
	for side := 0; side < 2; side++ {
		for _, theta := range thetas {
			in.P[side] = append(in.P[side], w.paramsAt(t, side, theta))
		}
	}
	return in, nil
}

// scanParams measures the scan-path model parameters of task on db: the
// document partition, the value counts and frequency distributions, and
// the fraction of bad occurrences hosted in good documents.
func scanParams(db *corpus.DB, task string) (model.RelationParams, error) {
	stats := db.Stats(task)
	if stats == nil {
		return model.RelationParams{}, fmt.Errorf("workload: database %s missing task %s", db.Name, task)
	}
	return model.RelationParams{
		D:             db.Size(),
		Dg:            stats.NumGood,
		Db:            stats.NumBad,
		Ag:            stats.GoodValues(),
		Ab:            stats.BadValues(),
		GoodFreq:      histToPMF(stats.FreqHistogram(true)),
		BadFreq:       histToPMF(stats.FreqHistogram(false)),
		BadInGoodFrac: badInGoodFrac(db, task, stats),
	}, nil
}

// MentionedDocs counts the documents of side i reachable by join-value
// keyword queries: the union of all task values' query matches. This bounds
// the reach of query-based join algorithms.
func (w *Workload) MentionedDocs(i int) int {
	stats := w.DB[i].Stats(w.Task[i])
	seen := map[int]bool{}
	for _, freqs := range []map[string]int{stats.GoodFreq, stats.BadFreq} {
		for v := range freqs {
			for _, id := range w.Ix[i].Matches(index.QueryFromValue(v)) {
				seen[id] = true
			}
		}
	}
	return len(seen)
}

// CasualHits measures the expected hits of a query on a company with no
// task occurrences in side i's database (casual mentions only).
func (w *Workload) CasualHits(i int) float64 {
	stats := w.DB[i].Stats(w.Task[i])
	inTask := map[string]bool{}
	for v := range stats.GoodFreq {
		inTask[v] = true
	}
	for v := range stats.BadFreq {
		inTask[v] = true
	}
	var sum float64
	var n int
	r := stat.NewRNG(271)
	for len(w.Gaz.Companies) > 0 && n < 200 {
		v := w.Gaz.Companies[r.Intn(len(w.Gaz.Companies))]
		if inTask[v] {
			continue
		}
		sum += float64(len(w.Ix[i].Matches(index.QueryFromValue(v))))
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// TrueOverlaps returns the attribute-value overlap cardinalities between
// the two tasks' gold sets.
func (w *Workload) TrueOverlaps() relation.OverlapSets {
	return relation.Overlaps(w.DB[0].Gold(w.Task[0]), w.DB[1].Gold(w.Task[1]))
}

// aqgParams measures per-query hit compositions on side i's database. Hits
// are counted through the capped search interface — what an AQG execution
// can actually retrieve — not the raw match lists.
func (w *Workload) aqgParams(i int) ([]model.QueryParam, error) {
	stats := w.DB[i].Stats(w.Task[i])
	out := make([]model.QueryParam, 0, len(w.AQGQueries[i]))
	for _, q := range w.AQGQueries[i] {
		matches := w.Ix[i].Search(q.IndexQuery())
		qp := model.QueryParam{Hits: len(matches)}
		for _, id := range matches {
			switch stats.Class[id] {
			case corpus.Good:
				qp.GoodHits++
			case corpus.Bad:
				qp.BadHits++
			}
		}
		out = append(out, qp)
	}
	return out, nil
}

// histToPMF normalizes a frequency histogram (counts[k-1] = #values with
// frequency k) into a PMF.
func histToPMF(hist []int) []float64 {
	var total int
	for _, c := range hist {
		total += c
	}
	if total == 0 {
		return nil
	}
	out := make([]float64, len(hist))
	for i, c := range hist {
		out[i] = float64(c) / float64(total)
	}
	return out
}

// badInGoodFrac measures the fraction of bad occurrences hosted in good
// documents.
func badInGoodFrac(db *corpus.DB, task string, stats *corpus.TaskStats) float64 {
	var inGood, total int
	for i, doc := range db.Docs {
		for _, m := range doc.Mentions {
			if m.Task != task || m.Good {
				continue
			}
			total++
			if stats.Class[i] == corpus.Good {
				inGood++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(inGood) / float64(total)
}

// valueQueryPrecision measures the mean fraction of a value query's hits
// that are occurrence documents of the value: occurrences / H(a), averaged
// over the task's values.
func valueQueryPrecision(ix *index.Index, stats *corpus.TaskStats) float64 {
	occ := map[string]int{}
	for v, f := range stats.GoodFreq {
		occ[v] += f
	}
	for v, f := range stats.BadFreq {
		occ[v] += f
	}
	values := make([]string, 0, len(occ))
	for v := range occ {
		values = append(values, v)
	}
	sort.Strings(values) // deterministic float accumulation order
	var sum float64
	var n int
	for _, v := range values {
		o := occ[v]
		hits := len(ix.Matches(index.QueryFromValue(v)))
		if hits == 0 {
			continue
		}
		frac := float64(o) / float64(hits)
		if frac > 1 {
			frac = 1
		}
		sum += frac
		n++
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}

// valuesPerDocPMF builds the pdk distribution of the zig-zag graph: the
// probability that a document reachable by value queries emits k tuples at
// the IE system's current rates. Each document's emission count is the
// convolution of Binomial(#good mentions, tp) and Binomial(#bad mentions,
// fp); documents with no mentions (casual-only) emit nothing.
func valuesPerDocPMF(db *corpus.DB, task string, tp, fp float64) []float64 {
	var acc []float64
	var docs int
	for _, doc := range db.Docs {
		var gm, bm int
		for _, m := range doc.Mentions {
			if m.Task != task {
				continue
			}
			if m.Good {
				gm++
			} else {
				bm++
			}
		}
		if gm+bm == 0 {
			continue
		}
		docs++
		pmf := convolveBinomials(gm, tp, bm, fp)
		for len(acc) < len(pmf) {
			acc = append(acc, 0)
		}
		for k, p := range pmf {
			acc[k] += p
		}
	}
	if docs == 0 {
		return []float64{1}
	}
	for k := range acc {
		acc[k] /= float64(docs)
	}
	return acc
}

// convolveBinomials returns the PMF of Binomial(n1, p1) + Binomial(n2, p2).
func convolveBinomials(n1 int, p1 float64, n2 int, p2 float64) []float64 {
	a := binomialPMFSlice(n1, p1)
	b := binomialPMFSlice(n2, p2)
	out := make([]float64, len(a)+len(b)-1)
	for i, ai := range a {
		for j, bj := range b {
			out[i+j] += ai * bj
		}
	}
	return out
}

func binomialPMFSlice(n int, p float64) []float64 {
	out := make([]float64, n+1)
	for k := 0; k <= n; k++ {
		out[k] = stat.BinomialPMF(n, k, p)
	}
	return out
}
