// Package workload assembles end-to-end experimental setups mirroring the
// paper's evaluation (§VII): two text databases hosting a pair of
// extraction tasks (HQ = Headquarters⟨Company, Location⟩, EX =
// Executives⟨Company, CEO⟩, MG = Mergers⟨Company, MergedWith⟩), trained
// retrieval machinery (FS classifier, AQG queries), tuned IE systems,
// search interfaces with top-k caps, and seed values for the zig-zag join.
// All value-overlap sets (Agg, Agb, Abg, Abb) and frequency distributions
// are controlled, including planted high-frequency never-extracted outlier
// values that reproduce the paper's bad-tuple overestimation cases.
package workload

import (
	"fmt"
	"sync"

	"joinopt/internal/classifier"
	"joinopt/internal/corpus"
	"joinopt/internal/extract"
	"joinopt/internal/faults"
	"joinopt/internal/index"
	"joinopt/internal/join"
	"joinopt/internal/obs"
	"joinopt/internal/pipeline"
	"joinopt/internal/qxtract"
	"joinopt/internal/relation"
	"joinopt/internal/retrieval"
	"joinopt/internal/stat"
	"joinopt/internal/textgen"
)

// Params scales a workload.
type Params struct {
	// NumDocs is the number of documents in the first database (and the
	// second, unless NumDocs2 is set).
	NumDocs int
	// NumDocs2, when positive, sizes the second database differently: the
	// relation content (values, mentions, document targets) stays the
	// same, so a larger NumDocs2 means a bigger haystack of empty and
	// casual documents around the same needles. Asymmetric sizes exercise
	// the optimizer's outer-relation choice and the rectangle traversal.
	NumDocs2 int
	// Seed drives all generation randomness.
	Seed int64
	// TopK is the search-interface result cap; 0 picks a size-proportional
	// default (max(10, NumDocs/400)), mirroring the tight caps of real
	// search interfaces — the factor that bounds query-based join
	// algorithms (§IV).
	TopK int
}

// DefaultParams is the bench-scale configuration: large enough for the
// power-law and sampling behaviour to be visible, small enough for tests.
var DefaultParams = Params{NumDocs: 4000, Seed: 1}

// Workload is a fully wired two-database join task. Everything an
// execution reads is built once, with the workload, and shared by every
// execution over it and its clones: the trained machinery, each
// database's extraction table (filled as documents are first read) and
// each side's Filtered Scan decisions.
type Workload struct {
	Params Params

	Gaz        *textgen.Gazetteer
	DB         [2]*corpus.DB // DB[i] hosts Task[i]
	Train      [2]*corpus.DB
	Task       [2]string
	Sys        [2]*extract.System
	Ix         [2]*index.Index
	Cls        [2]classifier.Classifier
	AQGQueries [2][]qxtract.Query
	Costs      [2]join.Costs

	// Tables[i] memoizes Sys[i]'s extraction over DB[i] by document ID,
	// and Accept[i] holds Cls[i]'s decision on every document of DB[i]:
	// every executor side reads its extraction from the one, and every
	// Filtered Scan its decisions from the other.
	Tables [2]*extract.Table
	Accept [2][]bool

	// Seeds are join values with good tuples in both relations, used to
	// seed ZGJN executions.
	Seeds []string

	// Faults, when set, wraps every executor's substrate — document fetches,
	// retrieval pulls, FS classifier calls — with deterministic fault
	// injection. Retry tunes how executions retry and budget those failures
	// (zero value = join.DefaultRetry), and Deadline, when positive, caps
	// every execution's cost-model time.
	Faults   *faults.Profile
	Retry    join.RetryPolicy
	Deadline float64

	// ExecWorkers, when >= 1, runs every executor built over this workload
	// with a pipelined extraction pool of that many workers (see
	// internal/pipeline): document extraction overlaps ahead of the
	// consumer while results, cost accounting, traces, and snapshots stay
	// bit-identical to the sequential execution. 0 = sequential.
	ExecWorkers int

	// Shards partitions each database into that many deterministic shards
	// (see internal/shard), and Cache is the byte-bounded extraction cache
	// shared across every execution built over this workload — pilot,
	// abandoned, and final plans alike — so re-processing a document at the
	// same θ is free. A shard is a share of the speculation pool plus a
	// resume counter; documents resolve through the one cache and in
	// canonical stream order at any shard count, so output is bit-identical
	// at every setting. nil Cache = uncached. Hits, misses, and evictions
	// surface through Metrics.
	Shards int
	Cache  *pipeline.Cache

	// Trace and Metrics, when set, observe every execution built over this
	// workload: executors stamp span events and mirror their counters, fault
	// injectors report fired faults, and retrieval strategies report query
	// issuance. Both are nil by default (zero overhead); set them before
	// building executors.
	Trace   *obs.Trace
	Metrics *obs.Registry

	emMu  sync.Mutex
	emFor *obs.Registry
	em    *obs.ExecMetrics

	// statics memoizes the run-independent optimizer-environment
	// measurements (training-split IE rates, classifier rates, AQG query
	// compositions), and truth the perfect-knowledge statistics built on
	// them. Both are shared by pointer between a workload and all its
	// clones, so concurrent runs and optimize calls measure the substrate
	// once.
	statics *envStatics
	truth   *trueStatics
}

// Clone returns a per-run view of the workload: the immutable machinery
// (databases, IE systems, indexes, classifiers and their decisions, learned
// queries, seeds) and the internally synchronized shared state (extraction
// tables, env and perfect-knowledge statistics) are shared, while the
// per-run knobs — fault profile, retry policy, deadline, worker counts,
// extraction cache, trace, and metrics — live on the copy. Cloning is how the facade keeps
// concurrent Task.Run calls from racing on each other's configuration.
func (w *Workload) Clone() *Workload {
	return &Workload{
		Params:     w.Params,
		Gaz:        w.Gaz,
		DB:         w.DB,
		Train:      w.Train,
		Task:       w.Task,
		Sys:        w.Sys,
		Ix:         w.Ix,
		Cls:        w.Cls,
		AQGQueries: w.AQGQueries,
		Tables:     w.Tables,
		Accept:     w.Accept,
		Costs:      w.Costs,
		Seeds:      w.Seeds,

		Faults:      w.Faults,
		Retry:       w.Retry,
		Deadline:    w.Deadline,
		ExecWorkers: w.ExecWorkers,
		Shards:      w.Shards,
		Cache:       w.Cache,
		Trace:       w.Trace,
		Metrics:     w.Metrics,

		statics: w.statics,
		truth:   w.truth,
	}
}

// execMetrics resolves the execution metric bundle against the currently
// attached registry, memoized per registry so repeated executor construction
// reuses the same handles (and a registry swapped in between runs is honoured).
func (w *Workload) execMetrics() *obs.ExecMetrics {
	w.emMu.Lock()
	defer w.emMu.Unlock()
	if w.em == nil || w.emFor != w.Metrics {
		w.em = obs.NewExecMetrics(w.Metrics)
		w.emFor = w.Metrics
	}
	return w.em
}

// HQJoinEX builds the paper's primary workload: HQ hosted on an NYT96-like
// database, EX on an NYT95-like database.
func HQJoinEX(p Params) (*Workload, error) { return Pair(p, "HQ", "EX") }

// Pair builds a two-task workload over the standard tasks ("HQ", "EX",
// "MG"), with controlled value overlap between the two relations and
// same-shaped training databases for the classifier and query learners.
func Pair(p Params, task1, task2 string) (*Workload, error) {
	if p.NumDocs < 400 {
		return nil, fmt.Errorf("workload: NumDocs must be at least 400, got %d", p.NumDocs)
	}
	if p.NumDocs2 == 0 {
		p.NumDocs2 = p.NumDocs
	}
	if p.NumDocs2 < p.NumDocs {
		return nil, fmt.Errorf("workload: NumDocs2 (%d) must be at least NumDocs (%d)", p.NumDocs2, p.NumDocs)
	}
	if task1 == task2 {
		return nil, fmt.Errorf("workload: tasks must differ, got %q twice", task1)
	}
	if p.TopK == 0 {
		p.TopK = p.NumDocs / 400
		if p.TopK < 10 {
			p.TopK = 10
		}
	}
	w := &Workload{Params: p, Task: [2]string{task1, task2}, statics: &envStatics{}, truth: &trueStatics{}}

	vocabs := [2]textgen.TaskVocab{}
	for i, task := range w.Task {
		v, ok := textgen.VocabByTask(task)
		if !ok {
			return nil, fmt.Errorf("workload: unknown task %q (want HQ, EX, or MG)", task)
		}
		vocabs[i] = v
	}

	nGood := p.NumDocs * 15 / 100 // |Dg| target per task
	nBad := p.NumDocs * 8 / 100   // |Db| target per task
	// Good values per task: sized so the mention density stays near 1.2
	// mentions per good document (power-law mean ≈ 1.9 per value). Sparse
	// co-occurrence keeps the zig-zag graph weakly connected, as in the
	// paper's corpora, where ZGJN's reach is limited.
	n := nGood * 13 / 20
	// Bad values per task: enough that the bad mentions can cover the bad
	// documents with comfortable margin even on small corpora and in the
	// outlier-free training splits.
	nb := n * 7 / 10

	// The company pool splits into a shuffled value universe (join values
	// of both tasks) and a reserved tail for the MG task's second
	// attribute, when present.
	valueUniverse := 2*n + nb + 60
	mgExtra := 0
	for _, v := range vocabs {
		if v.Slot2 == textgen.Company {
			mgExtra = 2*n + 40
		}
	}
	w.Gaz = textgen.NewGazetteer(valueUniverse+mgExtra, 2*n+40, 400)
	shuffled := textgen.Shuffled(stat.NewRNG(p.Seed+7), w.Gaz.Companies[:valueUniverse])
	mgSeconds := w.Gaz.Companies[valueUniverse:]

	// Value ranges over the shuffled pool. The layout fixes the overlap
	// sets: Agg = n/2; each relation's bad values overlap its own and the
	// other relation's good values.
	goodVals := [2][]string{shuffled[0:n], shuffled[n/2 : n/2+n]}
	badVals := [2][]string{shuffled[3*n/4 : 3*n/4+nb], shuffled[n/4 : n/4+nb]}
	outliers := shuffled[3*n/2+1 : 3*n/2+5]
	outlierFreq := nBad / 3
	if outlierFreq > 40 {
		outlierFreq = 40
	}
	if outlierFreq < 4 {
		outlierFreq = 4
	}

	specFor := func(i int, withOutliers bool) (corpus.RelationSpec, error) {
		v := vocabs[i]
		spec := corpus.RelationSpec{
			Vocab:         v,
			GoodValues:    goodVals[i],
			BadValues:     badVals[i],
			GoodFreq:      stat.MustPowerLaw(2.0, 20),
			BadFreq:       stat.MustPowerLaw(2.2, 15),
			NumGoodDocs:   nGood,
			NumBadDocs:    nBad,
			BadInGoodRate: 0.3,
		}
		switch v.Task {
		case "HQ":
			spec.Schema = relation.Schema{Name: "Headquarters", Attr1: "Company", Attr2: "Location"}
			spec.GoodSeconds = w.Gaz.Locations[:200]
			spec.BadSeconds = w.Gaz.Locations[200:400]
		case "EX":
			spec.Schema = relation.Schema{Name: "Executives", Attr1: "Company", Attr2: "CEO"}
			spec.GoodSeconds = w.Gaz.Persons[:n+20]
			spec.BadSeconds = w.Gaz.Persons[n+20 : 2*n+40]
		case "MG":
			spec.Schema = relation.Schema{Name: "Mergers", Attr1: "Company", Attr2: "MergedWith"}
			spec.GoodSeconds = mgSeconds[:n+20]
			spec.BadSeconds = mgSeconds[n+20 : 2*n+40]
		default:
			return spec, fmt.Errorf("workload: no spec template for task %q", v.Task)
		}
		if withOutliers {
			spec.Outliers = outliers
			spec.OutlierFreq = outlierFreq
		}
		return spec, nil
	}

	sizeOf := func(i int) int {
		if i == 1 {
			return p.NumDocs2
		}
		return p.NumDocs
	}
	gen := func(name string, seed int64, i int, withOutliers bool) (*corpus.DB, error) {
		spec, err := specFor(i, withOutliers)
		if err != nil {
			return nil, err
		}
		return corpus.Generate(corpus.Config{
			Name: name, NumDocs: sizeOf(i), Seed: seed,
			Relations:  []corpus.RelationSpec{spec},
			CasualRate: 0.45, CasualPool: w.Gaz.Companies,
		})
	}
	var err error
	// Target databases carry the planted outlier values; the training
	// databases do not. IE-system rates are characterized on the training
	// split (as in the paper, where Snowball is trained and characterized on
	// NYT96), so database-specific outlier quirks are invisible to the
	// models — the source of the paper's bad-tuple overestimation cases.
	if w.DB[0], err = gen("target-"+task1, p.Seed+1, 0, true); err != nil {
		return nil, err
	}
	if w.DB[1], err = gen("target-"+task2, p.Seed+2, 1, true); err != nil {
		return nil, err
	}
	if w.Train[0], err = gen("train-"+task1, p.Seed+3, 0, false); err != nil {
		return nil, err
	}
	if w.Train[1], err = gen("train-"+task2, p.Seed+4, 1, false); err != nil {
		return nil, err
	}

	tagger := extract.NewTagger(w.Gaz)
	for i := 0; i < 2; i++ {
		if w.Sys[i], err = extract.NewSystemFromVocab(vocabs[i], tagger); err != nil {
			return nil, err
		}
		w.Tables[i] = w.Sys[i].NewTable(w.DB[i])
	}

	for i := 0; i < 2; i++ {
		w.Ix[i] = join.BuildIndex(w.DB[i], p.TopK)
		w.Costs[i] = join.DefaultCosts
		// The classifier and the query learner count over the same
		// tokenized training split.
		rows := index.NewTermRows(w.Train[i].Texts())
		cls, err := classifier.TrainRulesRows(rows, w.Train[i], w.Task[i], 12, 2, 0.5)
		if err != nil {
			// Fall back to naive Bayes when rule induction cannot meet the
			// precision floor on this training draw.
			b, berr := classifier.TrainBayesRows(rows, w.Train[i], w.Task[i], 0)
			if berr != nil {
				return nil, fmt.Errorf("workload: training side-%d classifier: %v (bayes: %v)", i+1, err, berr)
			}
			w.Cls[i] = b
		} else {
			w.Cls[i] = cls
		}
		if w.AQGQueries[i], err = qxtract.LearnRows(rows, w.Train[i], w.Task[i], 12); err != nil {
			return nil, fmt.Errorf("workload: learning side-%d queries: %w", i+1, err)
		}
		w.Accept[i] = classifier.Decisions(w.Cls[i], w.DB[i], w.Ix[i])
	}

	// ZGJN seeds: good values shared by both relations with nonzero
	// frequency in both databases.
	g1 := w.DB[0].Stats(task1).GoodFreq
	g2 := w.DB[1].Stats(task2).GoodFreq
	for _, v := range shuffled[n/2 : n] {
		if g1[v] > 0 && g2[v] > 0 {
			w.Seeds = append(w.Seeds, v)
			if len(w.Seeds) >= 3 {
				break
			}
		}
	}
	if len(w.Seeds) == 0 {
		return nil, fmt.Errorf("workload: no shared good values available as ZGJN seeds")
	}
	return w, nil
}

// Side builds a join.Side for side i (0 or 1) at knob configuration theta.
// When a fault profile is set, document fetches go through a fault-injected
// source under the workload's retry policy.
func (w *Workload) Side(i int, theta float64) *join.Side {
	s := &join.Side{
		DB:    w.DB[i],
		Index: w.Ix[i],
		Table: w.Tables[i],
		Theta: theta,
		Gold:  w.DB[i].Gold(w.Task[i]),
		Costs: w.Costs[i],
		Retry: w.Retry,
	}
	if w.Faults != nil {
		src := faults.NewFaultyDB(w.DB[i], w.Faults, i)
		src.SetObs(w.Trace, w.execMetrics())
		s.Source = src
	}
	return s
}

// NewStrategy builds a fresh retrieval strategy of the given kind for side
// i. Strategies are stateful; every execution needs its own. A Filtered
// Scan reads the side's decision table. When a fault profile is set, the
// strategy is wrapped with fault injection, and a Filtered Scan's
// classifier calls can fail too.
func (w *Workload) NewStrategy(i int, kind retrieval.Kind) (retrieval.Strategy, error) {
	var s retrieval.Strategy
	var err error
	switch kind {
	case retrieval.SC:
		s = retrieval.NewScan(w.DB[i].Size())
	case retrieval.FS:
		var cf retrieval.ClassifierFaults
		if w.Faults != nil {
			fc := faults.NewFaultyClassifier(w.Faults, i)
			fc.SetObs(w.Trace, w.execMetrics())
			cf = fc
		}
		s, err = retrieval.NewFilteredScan(w.DB[i], w.Accept[i], cf)
	case retrieval.AQG:
		s, err = retrieval.NewAQG(w.Ix[i], w.AQGQueries[i])
	default:
		return nil, fmt.Errorf("workload: unknown retrieval strategy %q", kind)
	}
	if err != nil {
		return nil, err
	}
	if w.Faults != nil {
		fs := faults.NewFaultyStrategy(s, w.Faults, i)
		fs.SetObs(w.Trace, w.execMetrics())
		s = fs
	}
	return retrieval.Instrument(s, i+1, w.Trace), nil
}
