package retrieval

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"joinopt/internal/classifier"
	"joinopt/internal/corpus"
	"joinopt/internal/index"
	"joinopt/internal/qxtract"
	"joinopt/internal/relation"
	"joinopt/internal/stat"
	"joinopt/internal/textgen"
)

func makeDB(t *testing.T, seed int64) *corpus.DB {
	t.Helper()
	g := textgen.NewGazetteer(300, 240, 120)
	g.Companies = textgen.Shuffled(stat.NewRNG(99), g.Companies)
	spec := corpus.RelationSpec{
		Vocab:         textgen.VocabHQ,
		Schema:        relation.Schema{Name: "Headquarters", Attr1: "Company", Attr2: "Location"},
		GoodValues:    g.Companies[:120],
		BadValues:     g.Companies[100:160],
		GoodSeconds:   g.Locations[:60],
		BadSeconds:    g.Locations[60:120],
		GoodFreq:      stat.MustPowerLaw(2.0, 8),
		BadFreq:       stat.MustPowerLaw(2.2, 6),
		NumGoodDocs:   120,
		NumBadDocs:    50,
		BadInGoodRate: 0.3,
	}
	db, err := corpus.Generate(corpus.Config{
		Name: "rdb", NumDocs: 500, Seed: seed,
		Relations:  []corpus.RelationSpec{spec},
		CasualRate: 0.2, CasualPool: g.Companies,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestScanCoversAllDocsInOrder(t *testing.T) {
	s := NewScan(5)
	var got []int
	for {
		id, ok := s.Next()
		if !ok {
			break
		}
		got = append(got, id)
	}
	if len(got) != 5 {
		t.Fatalf("scanned %v", got)
	}
	for i, id := range got {
		if id != i {
			t.Fatalf("scan order %v", got)
		}
	}
	if s.Counts().Retrieved != 5 {
		t.Errorf("retrieved %d", s.Counts().Retrieved)
	}
	if _, ok := s.Next(); ok {
		t.Error("exhausted scan must stay exhausted")
	}
	if s.Kind() != SC {
		t.Error("kind wrong")
	}
}

// acceptContains accepts documents containing a marker substring.
type acceptContains string

func (a acceptContains) Classify(text string) bool { return strings.Contains(text, string(a)) }

func TestFilteredScanFilters(t *testing.T) {
	db := makeDB(t, 1)
	fs, err := NewFilteredScan(db, classifier.Decisions(acceptContains("headquartered"), db, nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	accepted := 0
	for {
		id, ok := fs.Next()
		if !ok {
			break
		}
		if !strings.Contains(db.Doc(id).Text, "headquartered") {
			t.Fatal("rejected document handed out")
		}
		accepted++
	}
	c := fs.Counts()
	if c.Retrieved != db.Size() {
		t.Errorf("FS must retrieve the whole database, got %d", c.Retrieved)
	}
	if c.Filtered != db.Size()-accepted {
		t.Errorf("filtered %d, want %d", c.Filtered, db.Size()-accepted)
	}
	if accepted == 0 {
		t.Error("no documents accepted")
	}
	if fs.Kind() != FS {
		t.Error("kind wrong")
	}
}

func TestFilteredScanNeedsClassifier(t *testing.T) {
	db := makeDB(t, 2)
	if _, err := NewFilteredScan(db, nil, nil); err == nil {
		t.Error("expected error for missing classifier decisions")
	}
	if _, err := NewFilteredScan(db, make([]bool, db.Size()-1), nil); err == nil {
		t.Error("expected error for a decision table of the wrong size")
	}
}

// failEvery fails every nth classifier call and counts them all.
type failEvery struct{ n, calls int }

func (f *failEvery) Call() (float64, error) {
	f.calls++
	if f.calls%f.n == 0 {
		return 0.5, errors.New("classifier unavailable")
	}
	return 0, nil
}

// TestFilteredScanCallsFaultsOncePerDocument: the fallible path makes one
// classifier call per document it classifies, and a failed call neither
// advances the scan nor counts work, so the retry classifies the same
// document. Peek and plain Next never call.
func TestFilteredScanCallsFaultsOncePerDocument(t *testing.T) {
	db := makeDB(t, 7)
	accept := classifier.Decisions(acceptContains("headquartered"), db, nil)
	faults := &failEvery{n: 3}
	fs, err := NewFilteredScan(db, accept, faults)
	if err != nil {
		t.Fatal(err)
	}
	fs.Peek(50)
	if faults.calls != 0 {
		t.Fatalf("Peek made %d classifier calls", faults.calls)
	}
	var got []int
	failures := 0
	for {
		id, ok, _, err := fs.NextFallible()
		if err != nil {
			failures++
		}
		if r := fs.Counts().Retrieved; r != faults.calls-failures {
			t.Fatalf("%d documents retrieved after %d successful classifier calls", r, faults.calls-failures)
		}
		if err != nil {
			continue
		}
		if !ok {
			break
		}
		got = append(got, id)
	}
	var want []int
	for id, a := range accept {
		if a {
			want = append(want, id)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("fallible scan handed out %d documents, want the %d accepted ones", len(got), len(want))
	}
	if faults.calls != db.Size()+failures {
		t.Errorf("%d classifier calls for %d documents and %d failures", faults.calls, db.Size(), failures)
	}

	plain, _ := NewFilteredScan(db, accept, faults)
	calls := faults.calls
	for {
		if _, ok := plain.Next(); !ok {
			break
		}
	}
	if faults.calls != calls {
		t.Error("plain Next made classifier calls")
	}
}

func dbIndex(db *corpus.DB, topK int) *index.Index {
	texts := make([]string, db.Size())
	for i, d := range db.Docs {
		texts[i] = d.Text
	}
	return index.New(texts, topK)
}

func TestAQGStreamsQueryMatches(t *testing.T) {
	db := makeDB(t, 3)
	ix := dbIndex(db, 0)
	queries := []qxtract.Query{
		{Terms: []string{"headquartered"}},
		{Terms: []string{"headquarters"}},
	}
	a, err := NewAQG(ix, queries)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for {
		id, ok := a.Next()
		if !ok {
			break
		}
		if seen[id] {
			t.Fatal("AQG returned a document twice")
		}
		seen[id] = true
		text := db.Doc(id).Text
		if !strings.Contains(text, "headquartered") && !strings.Contains(text, "headquarters") {
			t.Fatal("AQG returned a non-matching document")
		}
	}
	c := a.Counts()
	if c.Queries != 2 {
		t.Errorf("queries issued %d, want 2", c.Queries)
	}
	if c.Retrieved != len(seen) {
		t.Errorf("retrieved %d, handed out %d", c.Retrieved, len(seen))
	}
	if len(seen) == 0 {
		t.Error("no documents retrieved")
	}
	if a.Kind() != AQG {
		t.Error("kind wrong")
	}
}

func TestAQGRespectsTopK(t *testing.T) {
	db := makeDB(t, 4)
	unlimited := dbIndex(db, 0)
	capped := dbIndex(db, 3)
	q := []qxtract.Query{{Terms: []string{"headquartered"}}}

	a1, _ := NewAQG(unlimited, q)
	a2, _ := NewAQG(capped, q)
	count := func(s Strategy) int {
		n := 0
		for {
			if _, ok := s.Next(); !ok {
				return n
			}
			n++
		}
	}
	n1, n2 := count(a1), count(a2)
	if n2 > 3 {
		t.Errorf("capped AQG returned %d docs", n2)
	}
	if n1 <= n2 {
		t.Errorf("uncapped %d should exceed capped %d", n1, n2)
	}
}

func TestAQGNeedsQueries(t *testing.T) {
	db := makeDB(t, 5)
	if _, err := NewAQG(dbIndex(db, 0), nil); err == nil {
		t.Error("expected error for empty query set")
	}
}

func TestAQGDeduplicatesAcrossQueries(t *testing.T) {
	db := makeDB(t, 6)
	ix := dbIndex(db, 0)
	// The same query twice: the second issue retrieves nothing new.
	q := []qxtract.Query{{Terms: []string{"headquartered"}}, {Terms: []string{"headquartered"}}}
	a, _ := NewAQG(ix, q)
	n := 0
	for {
		if _, ok := a.Next(); !ok {
			break
		}
		n++
	}
	if a.Counts().Queries != 2 {
		t.Errorf("queries %d", a.Counts().Queries)
	}
	want := len(ix.Search(index.Query{Terms: []string{"headquartered"}}))
	if n != want {
		t.Errorf("retrieved %d, want %d unique docs", n, want)
	}
}
