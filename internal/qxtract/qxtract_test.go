package qxtract

import (
	"testing"

	"joinopt/internal/corpus"
	"joinopt/internal/index"
	"joinopt/internal/relation"
	"joinopt/internal/stat"
	"joinopt/internal/textgen"
)

func makeDB(t *testing.T, seed int64) *corpus.DB {
	t.Helper()
	return makeDBSized(t, seed, 700)
}

// makeDBSized generates a labelled HQ split of numDocs documents (at least
// 210: 150 good, 60 bad).
func makeDBSized(t *testing.T, seed int64, numDocs int) *corpus.DB {
	t.Helper()
	g := textgen.NewGazetteer(300, 240, 120)
	g.Companies = textgen.Shuffled(stat.NewRNG(99), g.Companies)
	spec := corpus.RelationSpec{
		Vocab:         textgen.VocabHQ,
		Schema:        relation.Schema{Name: "Headquarters", Attr1: "Company", Attr2: "Location"},
		GoodValues:    g.Companies[:150],
		BadValues:     g.Companies[120:200],
		GoodSeconds:   g.Locations[:60],
		BadSeconds:    g.Locations[60:120],
		GoodFreq:      stat.MustPowerLaw(2.0, 10),
		BadFreq:       stat.MustPowerLaw(2.2, 8),
		NumGoodDocs:   150,
		NumBadDocs:    60,
		BadInGoodRate: 0.3,
	}
	db, err := corpus.Generate(corpus.Config{
		Name: "qx", NumDocs: numDocs, Seed: seed,
		Relations:  []corpus.RelationSpec{spec},
		CasualRate: 0.25, CasualPool: g.Companies,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func dbTexts(db *corpus.DB) []string {
	texts := make([]string, db.Size())
	for i, d := range db.Docs {
		texts[i] = d.Text
	}
	return texts
}

func TestLearnFindsCueQueries(t *testing.T) {
	train := makeDB(t, 1)
	queries, err := Learn(train, "HQ", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(queries) == 0 || len(queries) > 10 {
		t.Fatalf("learned %d queries", len(queries))
	}
	cues := textgen.VocabHQ.CueTermSet()
	cueHits := 0
	for _, q := range queries {
		for _, term := range q.Terms {
			if cues[term] {
				cueHits++
			}
		}
	}
	if cueHits == 0 {
		t.Errorf("no cue terms among learned queries %v", queries)
	}
}

func TestLearnedQueriesHavePrecision(t *testing.T) {
	train := makeDB(t, 2)
	queries, err := Learn(train, "HQ", 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		if q.TrainMatches == 0 {
			t.Errorf("query %v matches nothing on its own training split", q.Terms)
		}
	}
	if queries[0].TrainPrec < 0.4 {
		t.Errorf("top query precision %v too low", queries[0].TrainPrec)
	}
}

func TestQueriesGeneralizeToTargetDB(t *testing.T) {
	train := makeDB(t, 3)
	target := makeDB(t, 4)
	queries, err := Learn(train, "HQ", 8)
	if err != nil {
		t.Fatal(err)
	}
	ix := index.New(dbTexts(target), 0)
	class := target.Stats("HQ").Class
	// The average precision P(q) — the good fraction of the target
	// documents q matches — of the matching queries should beat the base
	// rate of good documents (150/700 ≈ 0.21).
	var sum float64
	var n int
	for _, q := range queries {
		matches := ix.Matches(q.IndexQuery())
		if len(matches) == 0 {
			continue
		}
		good := 0
		for _, id := range matches {
			if class[id] == corpus.Good {
				good++
			}
		}
		sum += float64(good) / float64(len(matches))
		n++
	}
	if n == 0 {
		t.Fatal("no learned query matches the target database")
	}
	if sum/float64(n) < 0.25 {
		t.Errorf("average target precision %v does not beat the base rate", sum/float64(n))
	}
}

func TestLearnErrors(t *testing.T) {
	db := makeDB(t, 5)
	if _, err := Learn(db, "EX", 5); err == nil {
		t.Error("expected error for unhosted task")
	}
	if _, err := Learn(db, "HQ", 0); err == nil {
		t.Error("expected error for zero queries")
	}
}

func TestIndexQueryConversion(t *testing.T) {
	q := Query{Terms: []string{"headquartered", "offices"}}
	iq := q.IndexQuery()
	if len(iq.Terms) != 2 || iq.Terms[0] != "headquartered" {
		t.Errorf("conversion wrong: %v", iq)
	}
}
