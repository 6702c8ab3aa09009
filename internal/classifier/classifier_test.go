package classifier

import (
	"sync"
	"testing"

	"joinopt/internal/corpus"
	"joinopt/internal/relation"
	"joinopt/internal/stat"
	"joinopt/internal/textgen"
)

func trainDB(t testing.TB, seed int64) *corpus.DB {
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
		Name: "train", NumDocs: 700, Seed: seed,
		Relations:  []corpus.RelationSpec{spec},
		CasualRate: 0.25, CasualPool: g.Companies,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestBayesSeparatesClasses(t *testing.T) {
	train := trainDB(t, 1)
	test := trainDB(t, 2)
	b, err := TrainBayes(train, "HQ", 0)
	if err != nil {
		t.Fatal(err)
	}
	ctp, cfp, err := Measure(b, test, "HQ")
	if err != nil {
		t.Fatal(err)
	}
	if ctp < 0.6 {
		t.Errorf("Bayes Ctp = %v, want reasonable recall of good docs", ctp)
	}
	if cfp >= ctp {
		t.Errorf("Bayes Cfp %v should be below Ctp %v", cfp, ctp)
	}
}

func TestBayesThresholdTradesRates(t *testing.T) {
	train := trainDB(t, 3)
	test := trainDB(t, 4)
	loose, err := TrainBayes(train, "HQ", 0)
	if err != nil {
		t.Fatal(err)
	}
	strict, err := TrainBayes(train, "HQ", 5)
	if err != nil {
		t.Fatal(err)
	}
	lt, lf, _ := Measure(loose, test, "HQ")
	st, sf, _ := Measure(strict, test, "HQ")
	if st > lt+1e-9 {
		t.Errorf("stricter threshold should not raise Ctp: %v -> %v", lt, st)
	}
	if sf > lf+1e-9 {
		t.Errorf("stricter threshold should not raise Cfp: %v -> %v", lf, sf)
	}
}

func TestRulesLearnCueTerms(t *testing.T) {
	train := trainDB(t, 5)
	r, err := TrainRules(train, "HQ", 8, 2, 0.55)
	if err != nil {
		t.Fatal(err)
	}
	cues := textgen.VocabHQ.CueTermSet()
	found := false
	for _, rule := range r.Set {
		for _, term := range rule.Terms {
			if cues[term] {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("no cue term among learned rules %v", r.Set)
	}
}

func TestRulesClassifyGeneralizes(t *testing.T) {
	train := trainDB(t, 6)
	test := trainDB(t, 7)
	r, err := TrainRules(train, "HQ", 8, 2, 0.55)
	if err != nil {
		t.Fatal(err)
	}
	ctp, cfp, err := Measure(r, test, "HQ")
	if err != nil {
		t.Fatal(err)
	}
	if ctp < 0.5 {
		t.Errorf("rules Ctp = %v, too low", ctp)
	}
	if cfp >= ctp {
		t.Errorf("rules Cfp %v should be below Ctp %v", cfp, ctp)
	}
}

func TestMeasureUnknownTask(t *testing.T) {
	db := trainDB(t, 8)
	b, err := TrainBayes(db, "HQ", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Measure(b, db, "EX"); err == nil {
		t.Error("expected error for unknown task")
	}
}

func TestTrainErrors(t *testing.T) {
	db := trainDB(t, 9)
	if _, err := TrainBayes(db, "EX", 0); err == nil {
		t.Error("expected error training on unhosted task")
	}
	if _, err := TrainRules(db, "EX", 4, 2, 0.5); err == nil {
		t.Error("expected error training rules on unhosted task")
	}
	if _, err := TrainRules(db, "HQ", 0, 2, 0.5); err == nil {
		t.Error("expected error for zero rules")
	}
	if _, err := TrainRules(db, "HQ", 4, 2, 1.01); err == nil {
		t.Error("expected error when precision floor is unreachable")
	}
}

func TestRuleFiringSemantics(t *testing.T) {
	r := &Rules{Set: []Rule{{Terms: []string{"headquartered", "offices"}}}}
	if !r.Classify("the firm is headquartered with offices downtown") {
		t.Error("rule with all terms present must fire")
	}
	if r.Classify("the firm is headquartered downtown") {
		t.Error("rule with a missing conjunct must not fire")
	}
}

func trainedRules(tb testing.TB) *Rules {
	tb.Helper()
	r, err := TrainRules(trainDB(tb, 1), "HQ", 12, 2, 0.5)
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

// TestRulesClassifyConcurrent: the pooled scratch is shared by every
// goroutine classifying through one Rules (concurrent Filtered Scan
// workers, joinoptd jobs); concurrent calls must decide exactly as
// sequential ones.
func TestRulesClassifyConcurrent(t *testing.T) {
	r := trainedRules(t)
	docs := trainDB(t, 3).Docs
	want := make([]bool, len(docs))
	for i, d := range docs {
		want[i] = r.Classify(d.Text)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range docs {
				i := (j + w*len(docs)/4) % len(docs)
				if got := r.Classify(docs[i].Text); got != want[i] {
					t.Errorf("worker %d: document %d classified %v concurrently, %v sequentially", w, i, got, want[i])
				}
			}
		}(w)
	}
	wg.Wait()
}

func BenchmarkRulesClassify(b *testing.B) {
	r := trainedRules(b)
	docs := trainDB(b, 2).Docs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Classify(docs[i%len(docs)].Text)
	}
}
