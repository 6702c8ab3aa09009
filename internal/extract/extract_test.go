package extract

import (
	"math"
	"testing"

	"joinopt/internal/corpus"
	"joinopt/internal/relation"
	"joinopt/internal/stat"
	"joinopt/internal/textgen"
)

func testGazetteer() *textgen.Gazetteer {
	return textgen.NewGazetteer(300, 240, 120)
}

func testCorpus(t *testing.T, seed int64) (*corpus.DB, *textgen.Gazetteer) {
	t.Helper()
	g := testGazetteer()
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
		Outliers:      g.Companies[290:292],
		OutlierFreq:   20,
	}
	db, err := corpus.Generate(corpus.Config{
		Name: "hqdb", NumDocs: 700, Seed: seed,
		Relations:  []corpus.RelationSpec{spec},
		CasualRate: 0.25, CasualPool: g.Companies,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db, g
}

func hqSystem(t *testing.T, g *textgen.Gazetteer) *System {
	t.Helper()
	sys, err := NewSystemFromVocab(textgen.VocabHQ, NewTagger(g))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestTaggerLongestMatch(t *testing.T) {
	g := &textgen.Gazetteer{
		Companies: []string{"Acme Dynamics", "Acme Dynamics 2"},
		Locations: []string{"Pine Bluff"},
	}
	tagger := NewTagger(g)
	tokens := []string{"acme", "dynamics", "2", "near", "pine", "bluff"}
	ents, covered := tagger.Tag(tokens)
	if len(ents) != 2 {
		t.Fatalf("entities %v", ents)
	}
	if ents[0].Name != "Acme Dynamics 2" {
		t.Errorf("greedy longest match failed: %q", ents[0].Name)
	}
	if ents[1].Name != "Pine Bluff" || ents[1].Type != textgen.Location {
		t.Errorf("location tag wrong: %+v", ents[1])
	}
	if covered[3] {
		t.Error("non-entity token marked covered")
	}
	if !covered[0] || !covered[5] {
		t.Error("entity tokens not covered")
	}
}

func TestSplitSentences(t *testing.T) {
	s := SplitSentences("a b . c . . d e f .")
	if len(s) != 3 {
		t.Fatalf("sentences %v", s)
	}
	if len(s[0]) != 2 || len(s[1]) != 1 || len(s[2]) != 3 {
		t.Errorf("sentence shapes %v", s)
	}
}

func TestPatternScoreLattice(t *testing.T) {
	// With a 4-term pattern and a 6-token context of distinct tokens,
	// cosine = k/sqrt(24) for k matched cue terms.
	p := NewPattern([]string{"w1", "w2", "w3", "w4"})
	ctx := map[string]int{"w1": 1, "w2": 1, "n1": 1, "n2": 1, "n3": 1, "n4": 1}
	got := p.Score(ctx, 6)
	want := 2.0 / math.Sqrt(24)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("score %v, want %v", got, want)
	}
	if p.Score(map[string]int{"z": 1}, 1) != 0 {
		t.Error("disjoint context must score zero")
	}
}

func TestExtractEmitsPlantedMention(t *testing.T) {
	g := testGazetteer()
	r := stat.NewRNG(1)
	sent := textgen.MentionSentenceK(r, textgen.VocabHQ, g.Companies[0], g.Locations[0], 4)
	text := textgen.Render([]textgen.Sentence{sent})
	sys := hqSystem(t, g)
	tuples := sys.Extract(text, 0.8)
	if len(tuples) != 1 {
		t.Fatalf("extracted %v", tuples)
	}
	if tuples[0].A1 != g.Companies[0] || tuples[0].A2 != g.Locations[0] {
		t.Errorf("tuple %v", tuples[0])
	}
}

func TestExtractThresholdFiltersWeakMentions(t *testing.T) {
	g := testGazetteer()
	r := stat.NewRNG(2)
	sent := textgen.MentionSentenceK(r, textgen.VocabHQ, g.Companies[0], g.Locations[0], 1)
	text := textgen.Render([]textgen.Sentence{sent})
	sys := hqSystem(t, g)
	if got := sys.Extract(text, 0.4); len(got) != 0 {
		t.Errorf("k=1 mention must not pass minSim=0.4, got %v", got)
	}
	if got := sys.Extract(text, 0.1); len(got) != 1 {
		t.Errorf("k=1 mention should pass minSim=0.1, got %v", got)
	}
}

func TestExtractKnobScoreBoundaries(t *testing.T) {
	// k cue terms in a 6-word context score k/sqrt(24): 0.204, 0.408,
	// 0.612, 0.816. minSim 0.4 admits k>=2; 0.8 admits only k=4.
	g := testGazetteer()
	sys := hqSystem(t, g)
	for k := 1; k <= 4; k++ {
		r := stat.NewRNG(int64(k))
		sent := textgen.MentionSentenceK(r, textgen.VocabHQ, g.Companies[0], g.Locations[0], k)
		text := textgen.Render([]textgen.Sentence{sent})
		cands := sys.Scan(text)
		if len(cands) != 1 {
			t.Fatalf("k=%d candidates %v", k, cands)
		}
		want := float64(k) / math.Sqrt(24)
		if math.Abs(cands[0].Score-want) > 1e-9 {
			t.Errorf("k=%d score %v, want %v", k, cands[0].Score, want)
		}
	}
}

func TestExtractIgnoresCasualMentions(t *testing.T) {
	g := testGazetteer()
	r := stat.NewRNG(3)
	sent := textgen.CasualSentence(r, g.Companies[5])
	text := textgen.Render([]textgen.Sentence{sent})
	sys := hqSystem(t, g)
	if got := sys.Extract(text, 0.0); len(got) != 0 {
		t.Errorf("casual mention extracted: %v", got)
	}
}

func TestMergersSameTypePairing(t *testing.T) {
	g := testGazetteer()
	sys, err := NewSystemFromVocab(textgen.VocabMG, NewTagger(g))
	if err != nil {
		t.Fatal(err)
	}
	r := stat.NewRNG(4)
	sent := textgen.MentionSentenceK(r, textgen.VocabMG, g.Companies[1], g.Companies[2], 4)
	text := textgen.Render([]textgen.Sentence{sent})
	tuples := sys.Extract(text, 0.8)
	if len(tuples) != 1 || tuples[0].A1 != g.Companies[1] || tuples[0].A2 != g.Companies[2] {
		t.Fatalf("merger pairing %v", tuples)
	}
}

func TestMeasureRatesMatchCueDistributions(t *testing.T) {
	db, g := testCorpus(t, 10)
	sys := hqSystem(t, g)
	rates, err := MeasureRates(sys, db)
	if err != nil {
		t.Fatal(err)
	}
	// tp(0.4) should approximate P(k>=2 | good) = 0.85;
	// tp(0.8) approximates P(k=4 | good) = 0.30. Bands are wide enough for
	// single-seed sampling noise.
	if got := rates.TP(0.4); got < 0.75 || got > 0.93 {
		t.Errorf("tp(0.4) = %v, want ~0.85", got)
	}
	if got := rates.TP(0.8); got < 0.20 || got > 0.42 {
		t.Errorf("tp(0.8) = %v, want ~0.30", got)
	}
	// fp is dragged down further by outlier mentions (always k=1).
	if fp04 := rates.FP(0.4); fp04 > 0.60 || fp04 < 0.25 {
		t.Errorf("fp(0.4) = %v, want well below tp", fp04)
	}
	if rates.FP(0.8) >= rates.FP(0.4) {
		t.Error("fp must decrease with theta")
	}
	if rates.TP(0.0) != 1 {
		t.Errorf("tp(0) = %v, want 1", rates.TP(0.0))
	}
}

func TestMeasureRatesUnknownTask(t *testing.T) {
	db, g := testCorpus(t, 11)
	sys, err := NewSystemFromVocab(textgen.VocabEX, NewTagger(g))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MeasureRates(sys, db); err == nil {
		t.Error("expected error for task not hosted by database")
	}
}

func TestExtractDeduplicates(t *testing.T) {
	g := testGazetteer()
	r := stat.NewRNG(5)
	s1 := textgen.MentionSentenceK(r, textgen.VocabHQ, g.Companies[0], g.Locations[0], 4)
	s2 := textgen.MentionSentenceK(r, textgen.VocabHQ, g.Companies[0], g.Locations[0], 4)
	text := textgen.Render([]textgen.Sentence{s1, s2})
	sys := hqSystem(t, g)
	if got := sys.Extract(text, 0.5); len(got) != 1 {
		t.Errorf("duplicate tuples not merged: %v", got)
	}
}

// TestExtractKeepsBestScore: a tuple mentioned twice is emitted at θ iff
// its strongest mention scores at least θ, whichever mention comes first,
// through the text entry point and through a table alike.
func TestExtractKeepsBestScore(t *testing.T) {
	g := testGazetteer()
	sys := hqSystem(t, g)
	r := stat.NewRNG(9)
	weak := textgen.MentionSentenceK(r, textgen.VocabHQ, g.Companies[0], g.Locations[0], 1)
	strong := textgen.MentionSentenceK(r, textgen.VocabHQ, g.Companies[0], g.Locations[0], 4)
	db := &corpus.DB{Docs: []*corpus.Document{
		{ID: 0, Text: textgen.Render([]textgen.Sentence{weak, strong})},
		{ID: 1, Text: textgen.Render([]textgen.Sentence{strong, weak})},
	}}
	tab := sys.NewTable(db, relation.NewValues())
	best := 4 / math.Sqrt(24)
	for id, d := range db.Docs {
		for _, theta := range []float64{0.1, best} {
			if got := sys.Extract(d.Text, theta); len(got) != 1 {
				t.Errorf("doc %d θ=%.3f: Extract = %v, want the tuple once", id, theta, got)
			}
			if got := tab.Extract(id, theta); len(got) != 1 {
				t.Errorf("doc %d θ=%.3f: table = %v, want the tuple once", id, theta, got)
			}
		}
		if got := tab.Extract(id, math.Nextafter(best, 1)); got != nil {
			t.Errorf("doc %d above the best score: table = %v, want nil", id, got)
		}
	}
}

func TestTrainPatternsRecoverCues(t *testing.T) {
	db, g := testCorpus(t, 12)
	patterns, err := TrainPatterns(db, textgen.VocabHQ, NewTagger(g), 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	learned := map[string]bool{}
	for _, p := range patterns {
		for _, term := range p.Terms {
			learned[term] = true
		}
	}
	cues := textgen.VocabHQ.CueTermSet()
	hits := 0
	for c := range cues {
		if learned[c] {
			hits++
		}
	}
	if hits < len(cues)*2/3 {
		t.Errorf("training recovered %d/%d cue terms: %v", hits, len(cues), patterns)
	}
}

func TestTrainedSystemExtracts(t *testing.T) {
	db, g := testCorpus(t, 13)
	tagger := NewTagger(g)
	patterns, err := TrainPatterns(db, textgen.VocabHQ, tagger, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem("HQ", textgen.Company, textgen.Location, patterns, tagger)
	if err != nil {
		t.Fatal(err)
	}
	rates, err := MeasureRates(sys, db)
	if err != nil {
		t.Fatal(err)
	}
	if rates.TP(0.4) < 0.5 {
		t.Errorf("trained system tp(0.4) = %v, too weak", rates.TP(0.4))
	}
}

func TestTrainPatternsErrors(t *testing.T) {
	db, g := testCorpus(t, 14)
	tagger := NewTagger(g)
	if _, err := TrainPatterns(db, textgen.VocabEX, tagger, 3, 4); err == nil {
		t.Error("expected error for unhosted task")
	}
	if _, err := TrainPatterns(db, textgen.VocabHQ, tagger, 0, 4); err == nil {
		t.Error("expected error for zero patterns")
	}
}

func TestNewSystemValidation(t *testing.T) {
	g := testGazetteer()
	if _, err := NewSystem("X", textgen.Company, textgen.Location, nil, NewTagger(g)); err == nil {
		t.Error("expected error for no patterns")
	}
	if _, err := NewSystem("X", textgen.Company, textgen.Location, []Pattern{NewPattern([]string{"a"})}, nil); err == nil {
		t.Error("expected error for nil tagger")
	}
}

func TestTaggerCrossTypeSharedPrefix(t *testing.T) {
	// Entities of different types sharing a first token: greedy longest
	// match must still resolve correctly, and type assignment must follow
	// the matched entry.
	g := &textgen.Gazetteer{
		Companies: []string{"Granite Systems"},
		Locations: []string{"Granite Pass"},
	}
	tagger := NewTagger(g)
	ents, _ := tagger.Tag([]string{"granite", "pass", "hosts", "granite", "systems"})
	if len(ents) != 2 {
		t.Fatalf("entities %v", ents)
	}
	if ents[0].Name != "Granite Pass" || ents[0].Type != textgen.Location {
		t.Errorf("first entity %+v", ents[0])
	}
	if ents[1].Name != "Granite Systems" || ents[1].Type != textgen.Company {
		t.Errorf("second entity %+v", ents[1])
	}
}

func TestTaggerNoFalseMatchOnPartialName(t *testing.T) {
	g := &textgen.Gazetteer{Companies: []string{"Acme Dynamics"}}
	tagger := NewTagger(g)
	// "acme" alone (wrong continuation) must not match.
	ents, covered := tagger.Tag([]string{"acme", "robotics", "expanded"})
	if len(ents) != 0 {
		t.Fatalf("spurious entities %v", ents)
	}
	for i, c := range covered {
		if c {
			t.Fatalf("token %d incorrectly covered", i)
		}
	}
}

// TestAppendResolvedNeverScans: a pipeline-resolved extraction (a cache or
// tier hit) is numbered through the dictionary while the document's row is
// unfilled, leaving the row unfilled, and read from the row once it is
// filled; both give the entries a table read gives.
func TestAppendResolvedNeverScans(t *testing.T) {
	db, g := testCorpus(t, 17)
	sys := hqSystem(t, g)
	values := relation.NewValues()
	cold, warm := sys.NewTable(db, values), sys.NewTable(db, values)
	gold := db.Gold("HQ")
	emitted := 0
	for id, d := range db.Docs {
		for _, theta := range []float64{0.4, 0.8} {
			tuples := sys.Extract(d.Text, theta)
			got := cold.AppendResolved(nil, id, theta, tuples)
			if cold.rows[id].Load() != nil {
				t.Fatalf("doc %d: resolving a cached extraction filled the row", id)
			}
			want := warm.AppendEntries(nil, id, theta)
			if len(got) != len(want) || len(got) != len(tuples) {
				t.Fatalf("doc %d θ=%v: resolved %v, table %v, tuples %v", id, theta, got, want, tuples)
			}
			for k := range got {
				if got[k].Tuple != tuples[k] || got[k].Good != gold.IsGood(tuples[k]) ||
					got[k].Value != values.ID(tuples[k].A1) {
					t.Fatalf("doc %d θ=%v: resolved entry %+v for %v", id, theta, got[k], tuples[k])
				}
			}
			if again := warm.AppendResolved(nil, id, theta, nil); len(again) != len(want) {
				t.Fatalf("doc %d θ=%v: a filled row resolved to %v, want %v", id, theta, again, want)
			}
			emitted += len(got)
		}
	}
	if emitted == 0 {
		t.Fatal("corpus emits no tuples")
	}
}
