package workload

import (
	"fmt"
	"sync"

	"joinopt/internal/corpus"
	"joinopt/internal/extract"
	"joinopt/internal/join"
	"joinopt/internal/model"
	"joinopt/internal/querygraph"
	"joinopt/internal/relation"
	"joinopt/internal/retrieval"
	"joinopt/internal/stat"
	"joinopt/internal/textgen"
)

// MultiWorkload is an n-database workload for the higher-order join
// extension (the paper's stated future work). Its scope is deliberately
// narrower than the binary Workload: scan-based retrieval only, no planted
// outliers, and IE rates characterized on the target corpora.
type MultiWorkload struct {
	Params Params
	Gaz    *textgen.Gazetteer
	Tasks  []string
	DBs    []*corpus.DB
	Sys    []*extract.System
	Costs  []join.Costs
	// Tables[i] memoizes Sys[i]'s extraction over DBs[i] by document ID;
	// all of them number join values in one dictionary.
	Tables []*extract.Table

	// truth holds every relation's θ-independent perfect-knowledge
	// parameters and rate curves. Measuring them walks each whole corpus,
	// so it happens once, on first use, not once per (relation, θ).
	truthOnce sync.Once
	truthErr  error
	truth     []relationTruth
}

// Multi builds an n-task workload over the standard tasks ("HQ", "EX",
// "MG"), 2 ≤ n ≤ querygraph.MaxRelations; tasks may repeat — each index
// gets its own corpus (distinct generation seed) and its own private value
// ranges, so repeated tasks still produce distinct relations. The join
// values split into a shared core present in every relation (so the n-way
// good composition is non-empty) plus per-index private ranges; each
// relation's bad values overlap the shared core at a staggered offset, so
// mixed good/bad class combinations are populated.
func Multi(p Params, tasks []string) (*MultiWorkload, error) {
	if p.NumDocs < 400 {
		return nil, fmt.Errorf("workload: NumDocs must be at least 400, got %d", p.NumDocs)
	}
	N := len(tasks)
	if N < 2 || N > querygraph.MaxRelations {
		return nil, fmt.Errorf("workload: multi-way supports 2..%d tasks, got %d", querygraph.MaxRelations, N)
	}
	vocabs := make([]textgen.TaskVocab, N)
	for i, task := range tasks {
		v, ok := textgen.VocabByTask(task)
		if !ok {
			return nil, fmt.Errorf("workload: unknown task %q", task)
		}
		vocabs[i] = v
	}

	mw := &MultiWorkload{Params: p, Tasks: append([]string(nil), tasks...)}
	nGood := p.NumDocs * 15 / 100
	nBad := p.NumDocs * 8 / 100
	n := nGood * 13 / 20
	nb := n * 7 / 10
	h := n / 2 // core size; privates are h each

	universe := h*(N+1) + nb + 60
	mgExtra := 0
	for _, v := range vocabs {
		if v.Slot2 == textgen.Company {
			mgExtra = 2*n + 40
		}
	}
	mw.Gaz = textgen.NewGazetteer(universe+mgExtra, 2*n+40, 400)
	shuffled := textgen.Shuffled(stat.NewRNG(p.Seed+17), mw.Gaz.Companies[:universe])
	mgSeconds := mw.Gaz.Companies[universe:]

	core := shuffled[:h]
	goodFor := func(i int) []string {
		private := shuffled[h+i*h : h+(i+1)*h]
		out := make([]string, 0, 2*h)
		out = append(out, core...)
		out = append(out, private...)
		return out
	}
	// Bad values start inside the shared core (staggered per task) and
	// spill into the private ranges, so mixed good/bad class combinations
	// across all n relations are populated — without that, every n-way
	// tuple would be all-good.
	badFor := func(i int) []string {
		start := i * h / 3
		return shuffled[start : start+nb]
	}

	tagger := extract.NewTagger(mw.Gaz)
	values := relation.NewValues()
	for i, v := range vocabs {
		spec := corpus.RelationSpec{
			Vocab:         v,
			GoodValues:    goodFor(i),
			BadValues:     badFor(i),
			GoodFreq:      stat.MustPowerLaw(2.0, 20),
			BadFreq:       stat.MustPowerLaw(2.2, 15),
			NumGoodDocs:   nGood,
			NumBadDocs:    nBad,
			BadInGoodRate: 0.3,
		}
		switch v.Task {
		case "HQ":
			spec.Schema = relation.Schema{Name: "Headquarters", Attr1: "Company", Attr2: "Location"}
			spec.GoodSeconds = mw.Gaz.Locations[:200]
			spec.BadSeconds = mw.Gaz.Locations[200:400]
		case "EX":
			spec.Schema = relation.Schema{Name: "Executives", Attr1: "Company", Attr2: "CEO"}
			spec.GoodSeconds = mw.Gaz.Persons[:n+20]
			spec.BadSeconds = mw.Gaz.Persons[n+20 : 2*n+40]
		case "MG":
			spec.Schema = relation.Schema{Name: "Mergers", Attr1: "Company", Attr2: "MergedWith"}
			spec.GoodSeconds = mgSeconds[:n+20]
			spec.BadSeconds = mgSeconds[n+20 : 2*n+40]
		}
		db, err := corpus.Generate(corpus.Config{
			Name: fmt.Sprintf("target%d-%s", i+1, v.Task), NumDocs: p.NumDocs, Seed: p.Seed + int64(i) + 1,
			Relations:  []corpus.RelationSpec{spec},
			CasualRate: 0.45, CasualPool: mw.Gaz.Companies,
		})
		if err != nil {
			return nil, err
		}
		mw.DBs = append(mw.DBs, db)
		sys, err := extract.NewSystemFromVocab(v, tagger)
		if err != nil {
			return nil, err
		}
		mw.Sys = append(mw.Sys, sys)
		mw.Tables = append(mw.Tables, sys.NewTable(db, values))
		mw.Costs = append(mw.Costs, join.DefaultCosts)
	}
	return mw, nil
}

// Side builds a join.Side for side i at knob configuration theta.
func (mw *MultiWorkload) Side(i int, theta float64) *join.Side {
	return &join.Side{
		DB:    mw.DBs[i],
		Table: mw.Tables[i],
		Theta: theta,
		Costs: mw.Costs[i],
	}
}

// Scan returns a fresh scan strategy for side i.
func (mw *MultiWorkload) Scan(i int) retrieval.Strategy {
	return retrieval.NewScan(mw.DBs[i].Size())
}

// Golds returns the gold sets in task order.
func (mw *MultiWorkload) Golds() []*relation.Gold {
	out := make([]*relation.Gold, len(mw.DBs))
	for i, db := range mw.DBs {
		out[i] = db.Gold(mw.Tasks[i])
	}
	return out
}

// trueStatics resolves (measuring once) every relation's scan-path
// parameters and its IE rates, characterized on the target corpus.
func (mw *MultiWorkload) trueStatics() ([]relationTruth, error) {
	mw.truthOnce.Do(func() {
		truth := make([]relationTruth, len(mw.DBs))
		for i, db := range mw.DBs {
			if truth[i].base, mw.truthErr = scanParams(db, mw.Tasks[i]); mw.truthErr != nil {
				return
			}
			if truth[i].rates, mw.truthErr = extract.MeasureRates(mw.Sys[i], db); mw.truthErr != nil {
				return
			}
		}
		mw.truth = truth
	})
	return mw.truth, mw.truthErr
}

// trueParams assembles the scan-path model parameters of side i at theta.
func (mw *MultiWorkload) trueParams(i int, theta float64) (*model.RelationParams, error) {
	truth, err := mw.trueStatics()
	if err != nil {
		return nil, err
	}
	return truth[i].at(theta), nil
}
