package corpus

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"joinopt/internal/relation"
	"joinopt/internal/stat"
	"joinopt/internal/textgen"
)

func testSpec(task string) RelationSpec {
	vocab, _ := textgen.VocabByTask(task)
	companies := textgen.NewGazetteer(300, 0, 0).Companies
	locations := textgen.NewGazetteer(0, 0, 120).Locations
	persons := textgen.NewGazetteer(0, 240, 0).Persons
	spec := RelationSpec{
		Vocab:         vocab,
		Schema:        relation.Schema{Name: task, Attr1: "Company", Attr2: "X"},
		GoodValues:    companies[:120],
		BadValues:     companies[100:160], // overlaps good by 20
		GoodFreq:      stat.MustPowerLaw(2.0, 10),
		BadFreq:       stat.MustPowerLaw(2.2, 8),
		NumGoodDocs:   120,
		NumBadDocs:    50,
		BadInGoodRate: 0.3,
		Outliers:      companies[290:292],
		OutlierFreq:   15,
	}
	switch vocab.Slot2 {
	case textgen.Location:
		spec.GoodSeconds = locations[:60]
		spec.BadSeconds = locations[60:120]
	case textgen.Person:
		spec.GoodSeconds = persons[:120]
		spec.BadSeconds = persons[120:240]
	default:
		spec.GoodSeconds = companies[160:230]
		spec.BadSeconds = companies[230:290]
	}
	return spec
}

func testDB(t *testing.T, seed int64) *DB {
	t.Helper()
	cfg := Config{
		Name:       "testdb",
		NumDocs:    600,
		Seed:       seed,
		Relations:  []RelationSpec{testSpec("HQ")},
		CasualRate: 0.3,
		CasualPool: textgen.NewGazetteer(300, 0, 0).Companies,
	}
	db, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestGenerateBasicInvariants(t *testing.T) {
	db := testDB(t, 1)
	if db.Size() != 600 {
		t.Fatalf("size %d", db.Size())
	}
	stats := db.Stats("HQ")
	if stats == nil {
		t.Fatal("missing stats")
	}
	if stats.NumGood != 120 {
		t.Errorf("|Dg| = %d, want 120", stats.NumGood)
	}
	if stats.NumBad != 50 {
		t.Errorf("|Db| = %d, want 50", stats.NumBad)
	}
	if stats.NumDocs() != 600 {
		t.Errorf("class partition covers %d docs", stats.NumDocs())
	}
}

func TestGenerateClassesMatchMentions(t *testing.T) {
	db := testDB(t, 2)
	stats := db.Stats("HQ")
	for i, d := range db.Docs {
		hasGood, hasBad := false, false
		for _, m := range d.Mentions {
			if m.Good {
				hasGood = true
			} else {
				hasBad = true
			}
		}
		want := Empty
		if hasGood {
			want = Good
		} else if hasBad {
			want = Bad
		}
		if stats.Class[i] != want {
			t.Fatalf("doc %d class %v, want %v", i, stats.Class[i], want)
		}
	}
}

func TestGenerateOneValuePerDocument(t *testing.T) {
	db := testDB(t, 3)
	for _, d := range db.Docs {
		seen := map[string]bool{}
		for _, m := range d.Mentions {
			if seen[m.Tuple.A1] {
				t.Fatalf("doc %d mentions value %q twice", d.ID, m.Tuple.A1)
			}
			seen[m.Tuple.A1] = true
		}
	}
}

func TestGenerateGoldConsistency(t *testing.T) {
	db := testDB(t, 4)
	gold := db.Gold("HQ")
	for _, d := range db.Docs {
		for _, m := range d.Mentions {
			if m.Good != gold.IsGood(m.Tuple) {
				t.Fatalf("mention %v goodness %v disagrees with gold", m.Tuple, m.Good)
			}
			if !gold.Known(m.Tuple) {
				t.Fatalf("mention %v not in gold", m.Tuple)
			}
		}
	}
	// Good and bad tuples must be disjoint (distinct second pools).
	for tup := range gold.Good {
		if gold.Bad[tup] {
			t.Fatalf("tuple %v in both gold sets", tup)
		}
	}
}

func TestGenerateFrequenciesMatchMentions(t *testing.T) {
	db := testDB(t, 5)
	stats := db.Stats("HQ")
	goodCount := map[string]int{}
	for _, d := range db.Docs {
		for _, m := range d.Mentions {
			if m.Good {
				goodCount[m.Tuple.A1]++
			}
		}
	}
	for a, f := range stats.GoodFreq {
		if goodCount[a] != f {
			t.Fatalf("g(%q) = %d but %d mentions", a, f, goodCount[a])
		}
	}
}

func TestGenerateOutliersAreFrequentAndBad(t *testing.T) {
	db := testDB(t, 6)
	stats := db.Stats("HQ")
	companies := textgen.NewGazetteer(300, 0, 0).Companies
	for _, out := range companies[290:292] {
		f := stats.BadFreq[out]
		if f < 8 {
			t.Errorf("outlier %q bad frequency %d, want near 15", out, f)
		}
		if stats.GoodFreq[out] != 0 {
			t.Errorf("outlier %q has good occurrences", out)
		}
	}
}

func TestGenerateTextContainsMentionEntities(t *testing.T) {
	db := testDB(t, 7)
	for _, d := range db.Docs {
		for _, m := range d.Mentions {
			if !strings.Contains(d.Text, m.Tuple.A1) || !strings.Contains(d.Text, m.Tuple.A2) {
				t.Fatalf("doc %d text missing mention entities %v", d.ID, m.Tuple)
			}
		}
	}
}

func TestGenerateDeterministicBySeed(t *testing.T) {
	a := testDB(t, 42)
	b := testDB(t, 42)
	for i := range a.Docs {
		if a.Docs[i].Text != b.Docs[i].Text {
			t.Fatal("same seed must produce identical corpora")
		}
	}
	c := testDB(t, 43)
	same := true
	for i := range a.Docs {
		if a.Docs[i].Text != c.Docs[i].Text {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should produce different corpora")
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{NumDocs: 0}); err == nil {
		t.Error("expected error for zero docs")
	}
	if _, err := Generate(Config{NumDocs: 10}); err == nil {
		t.Error("expected error for no relations")
	}
	spec := testSpec("HQ")
	spec.NumGoodDocs = 1000
	if _, err := Generate(Config{NumDocs: 600, Relations: []RelationSpec{spec}}); err == nil {
		t.Error("expected error when good+bad docs exceed corpus")
	}
	spec2 := testSpec("HQ")
	spec2.GoodValues = spec2.GoodValues[:2] // far too few mentions for 120 good docs
	if _, err := Generate(Config{NumDocs: 600, Relations: []RelationSpec{spec2}}); err == nil {
		t.Error("expected error when mentions cannot cover good docs")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := testDB(t, 8)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Size() != db.Size() || back.Name != db.Name {
		t.Fatal("size or name mismatch after round trip")
	}
	s1, s2 := db.Stats("HQ"), back.Stats("HQ")
	if s1.NumGood != s2.NumGood || s1.NumBad != s2.NumBad || s1.NumEmpty != s2.NumEmpty {
		t.Errorf("stats mismatch: %+v vs %+v", s1, s2)
	}
	if len(db.Gold("HQ").Good) != len(back.Gold("HQ").Good) {
		t.Error("gold good set size mismatch")
	}
	for i := range db.Docs {
		if db.Docs[i].Text != back.Docs[i].Text {
			t.Fatal("text mismatch after round trip")
		}
	}
}

func TestFreqHistogram(t *testing.T) {
	db := testDB(t, 9)
	stats := db.Stats("HQ")
	hist := stats.FreqHistogram(true)
	var total int
	for _, c := range hist {
		total += c
	}
	if total != stats.GoodValues() {
		t.Errorf("histogram covers %d values, want %d", total, stats.GoodValues())
	}
	if len(hist) != stats.MaxGoodFreq() {
		t.Errorf("histogram length %d, want max freq %d", len(hist), stats.MaxGoodFreq())
	}
}

func TestTwoRelationsInOneDB(t *testing.T) {
	cfg := Config{
		Name:      "dual",
		NumDocs:   900,
		Seed:      11,
		Relations: []RelationSpec{testSpec("HQ"), testSpec("EX")},
	}
	db, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tasks := db.Tasks()
	if len(tasks) != 2 || tasks[0] != "EX" || tasks[1] != "HQ" {
		t.Fatalf("tasks %v", tasks)
	}
	if db.Stats("HQ").NumGood != 120 || db.Stats("EX").NumGood != 120 {
		t.Error("per-task good doc targets not met")
	}
}

func TestDocClassString(t *testing.T) {
	if Good.String() != "good" || Bad.String() != "bad" || Empty.String() != "empty" {
		t.Error("class names wrong")
	}
}

func TestGenerateRandomConfigsInvariants(t *testing.T) {
	// Property-style sweep: across random small configurations the
	// generator either errors cleanly or upholds its invariants.
	companies := textgen.NewGazetteer(200, 0, 0).Companies
	locations := textgen.NewGazetteer(0, 0, 100).Locations
	r := stat.NewRNG(77)
	built := 0
	for trial := 0; trial < 25; trial++ {
		numDocs := 150 + r.Intn(400)
		nVals := 20 + r.Intn(80)
		nGoodDocs := 10 + r.Intn(nVals)
		nBadDocs := r.Intn(30)
		spec := RelationSpec{
			Vocab:         textgen.VocabHQ,
			Schema:        relation.Schema{Name: "HQ", Attr1: "Company", Attr2: "Location"},
			GoodValues:    companies[:nVals],
			BadValues:     companies[nVals : nVals+20+r.Intn(40)],
			GoodSeconds:   locations[:50],
			BadSeconds:    locations[50:100],
			GoodFreq:      stat.MustPowerLaw(1.6+r.Float64(), 8),
			BadFreq:       stat.MustPowerLaw(2.0, 6),
			NumGoodDocs:   nGoodDocs,
			NumBadDocs:    nBadDocs,
			BadInGoodRate: r.Float64() * 0.5,
		}
		db, err := Generate(Config{Name: "rnd", NumDocs: numDocs, Seed: int64(trial), Relations: []RelationSpec{spec}})
		if err != nil {
			continue // infeasible configuration rejected cleanly
		}
		built++
		stats := db.Stats("HQ")
		if stats.NumGood != nGoodDocs || stats.NumBad != nBadDocs {
			t.Fatalf("trial %d: partition %d/%d, want %d/%d", trial, stats.NumGood, stats.NumBad, nGoodDocs, nBadDocs)
		}
		if stats.NumDocs() != numDocs {
			t.Fatalf("trial %d: classes cover %d of %d docs", trial, stats.NumDocs(), numDocs)
		}
		for _, d := range db.Docs {
			seen := map[string]bool{}
			for _, m := range d.Mentions {
				if seen[m.Tuple.A1] {
					t.Fatalf("trial %d: value repeated in doc %d", trial, d.ID)
				}
				seen[m.Tuple.A1] = true
			}
		}
	}
	if built < 10 {
		t.Fatalf("only %d/25 random configurations were buildable; generator too brittle", built)
	}
}

func TestLoadRejectsCorruptJSON(t *testing.T) {
	if _, err := Load(strings.NewReader("{not json")); err == nil {
		t.Error("expected decode error")
	}
	if _, err := Load(strings.NewReader("")); err == nil {
		t.Error("expected error for empty input")
	}
}

func TestSaveLoadFileRoundTrip(t *testing.T) {
	db := testDB(t, 15)
	path := t.TempDir() + "/db.json"
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	back, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	if back.Size() != db.Size() {
		t.Error("file round trip size mismatch")
	}
}
