package index

import (
	"fmt"
	"testing"
	"testing/quick"
)

var docs = []string{
	"Acme Dynamics opened offices in Pine Bluff yesterday",
	"Vertex Holdings merged with Acme Dynamics last quarter",
	"pine bluff officials met acme representatives",
	"nothing relevant here at all",
	"Acme Dynamics headquartered near Pine Bluff",
}

func TestTokenize(t *testing.T) {
	got := Tokenize("Acme-Dynamics, opened (offices)!")
	want := []string{"acme", "dynamics", "opened", "offices"}
	if len(got) != len(want) {
		t.Fatalf("tokens %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestTokenizeEmpty(t *testing.T) {
	if len(Tokenize("  ,.!  ")) != 0 {
		t.Error("punctuation-only text should produce no tokens")
	}
}

func TestSearchConjunctive(t *testing.T) {
	ix := New(docs, 0)
	res := ix.Search(QueryFromValue("Acme Dynamics"))
	want := []int{0, 1, 4}
	if fmt.Sprint(res) != fmt.Sprint(want) {
		t.Errorf("search = %v, want %v", res, want)
	}
}

func TestSearchSingleTerm(t *testing.T) {
	ix := New(docs, 0)
	res := ix.Search(Query{Terms: []string{"pine"}})
	want := []int{0, 2, 4}
	if fmt.Sprint(res) != fmt.Sprint(want) {
		t.Errorf("search = %v, want %v", res, want)
	}
}

func TestSearchCaseInsensitive(t *testing.T) {
	ix := New(docs, 0)
	a := ix.Search(Query{Terms: []string{"ACME"}})
	b := ix.Search(Query{Terms: []string{"acme"}})
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Error("search must be case-insensitive")
	}
}

func TestSearchNoMatch(t *testing.T) {
	ix := New(docs, 0)
	if res := ix.Search(QueryFromValue("zebra")); len(res) != 0 {
		t.Errorf("unexpected matches %v", res)
	}
	if res := ix.Search(Query{}); len(res) != 0 {
		t.Errorf("empty query should match nothing, got %v", res)
	}
	if res := ix.Search(QueryFromValue("acme zebra")); len(res) != 0 {
		t.Errorf("conjunction with unknown term should match nothing, got %v", res)
	}
}

func TestTopKCap(t *testing.T) {
	ix := New(docs, 2)
	res := ix.Search(Query{Terms: []string{"acme"}})
	if len(res) != 2 {
		t.Fatalf("top-k cap violated: %v", res)
	}
	// Matches ignores the cap, and capped results are a subset of it.
	all := ix.Matches(Query{Terms: []string{"acme"}})
	if len(all) != 4 {
		t.Fatalf("Matches = %v, want all 4", all)
	}
	inAll := map[int]bool{}
	for _, id := range all {
		inAll[id] = true
	}
	for _, id := range res {
		if !inAll[id] {
			t.Fatalf("capped result %d not among matches %v", id, all)
		}
	}
	if ix.TopK() != 2 {
		t.Error("TopK accessor wrong")
	}
}

func TestTopKQueryDependentRanking(t *testing.T) {
	// Build a collection where two different queries share many matches;
	// with query-dependent ranking their capped results should differ.
	texts := make([]string, 60)
	for i := range texts {
		texts[i] = "alpha beta"
	}
	ix := New(texts, 10)
	a := ix.Search(Query{Terms: []string{"alpha"}})
	b := ix.Search(Query{Terms: []string{"beta"}})
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different queries over the same matches returned identical top-k sets")
	}
	// Determinism: repeating the query returns the same set.
	a2 := ix.Search(Query{Terms: []string{"alpha"}})
	for i := range a {
		if a[i] != a2[i] {
			t.Fatal("search not deterministic")
		}
	}
}

func TestDocFreq(t *testing.T) {
	ix := New(docs, 0)
	if ix.DocFreq("acme") != 4 {
		t.Errorf("DocFreq(acme) = %d", ix.DocFreq("acme"))
	}
	if ix.DocFreq("ACME") != 4 {
		t.Error("DocFreq must be case-insensitive")
	}
	if ix.DocFreq("nope") != 0 {
		t.Error("unknown term should have zero frequency")
	}
	if ix.NumDocs() != len(docs) {
		t.Error("NumDocs wrong")
	}
}

func TestSearchResultsSortedAndUnique(t *testing.T) {
	f := func(seed uint8) bool {
		// Build a small synthetic collection and check every single-term
		// query returns sorted unique IDs.
		texts := make([]string, 20)
		for i := range texts {
			texts[i] = fmt.Sprintf("w%d w%d w%d", (int(seed)+i)%5, i%3, i%7)
		}
		ix := New(texts, 0)
		for v := 0; v < 7; v++ {
			res := ix.Search(Query{Terms: []string{fmt.Sprintf("w%d", v)}})
			for j := 1; j < len(res); j++ {
				if res[j] <= res[j-1] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSearchSubsetOfMatches(t *testing.T) {
	// Property: Search results are always a subset of Matches, sorted.
	ix := New(docs, 1)
	q := Query{Terms: []string{"acme"}}
	s := ix.Search(q)
	m := ix.Matches(q)
	if len(s) != 1 {
		t.Fatalf("capped search %v should have one result", s)
	}
	found := false
	for _, id := range m {
		if id == s[0] {
			found = true
		}
	}
	if !found {
		t.Errorf("capped search %v not a subset of matches %v", s, m)
	}
}

func TestIntersectDoesNotAliasPostings(t *testing.T) {
	ix := New(docs, 0)
	res := ix.Search(Query{Terms: []string{"acme"}})
	res[0] = 999
	again := ix.Search(Query{Terms: []string{"acme"}})
	if again[0] == 999 {
		t.Error("search result aliases internal postings")
	}
}

func TestQueryString(t *testing.T) {
	q := QueryFromValue("Acme Dynamics")
	if q.String() != "[acme dynamics]" {
		t.Errorf("got %q", q.String())
	}
}

// TestNewTermRows: the vocabulary is every token in ascending string
// order, and each row lists exactly its document's distinct tokens as
// ascending IDs — the same terms Tokenize yields, duplicates and case
// folded away.
func TestNewTermRows(t *testing.T) {
	texts := append([]string{"", "Pine pine PINE bluff", "ÉCLAIR éclair Zed 42 zed"}, docs...)
	tr := NewTermRows(texts)
	if len(tr.Rows) != len(texts) {
		t.Fatalf("%d rows for %d texts", len(tr.Rows), len(texts))
	}
	for i := 1; i < len(tr.Terms); i++ {
		if tr.Terms[i-1] >= tr.Terms[i] {
			t.Fatalf("terms not strictly ascending at %d: %q, %q", i, tr.Terms[i-1], tr.Terms[i])
		}
	}
	vocab := map[string]bool{}
	for d, text := range texts {
		want := map[string]bool{}
		for _, tok := range Tokenize(text) {
			want[tok], vocab[tok] = true, true
		}
		row := tr.Rows[d]
		for k, id := range row {
			if k > 0 && row[k-1] >= id {
				t.Errorf("row %d not strictly ascending: %v", d, row)
			}
			if !want[tr.Terms[id]] {
				t.Errorf("row %d lists %q, not a token of %q", d, tr.Terms[id], text)
			}
		}
		if len(row) != len(want) {
			t.Errorf("row %d has %d terms, want the %d distinct tokens of %q", d, len(row), len(want), text)
		}
	}
	if len(tr.Terms) != len(vocab) {
		t.Errorf("%d terms, want the %d distinct tokens of all texts", len(tr.Terms), len(vocab))
	}
}
