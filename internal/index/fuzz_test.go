package index

import (
	"slices"
	"strings"
	"testing"
	"unicode"
)

// Fuzz targets run their seed corpus under plain `go test` and explore
// further under `go test -fuzz`.

func FuzzTokenize(f *testing.F) {
	f.Add("Acme Dynamics opened offices")
	f.Add("  ,.!  ")
	f.Add("üñïçôdé  Text-42 with_mixed\tseparators")
	f.Add(strings.Repeat("a", 10_000))
	f.Fuzz(func(t *testing.T, text string) {
		tokens := Tokenize(text)
		for _, tok := range tokens {
			if tok == "" {
				t.Fatal("empty token")
			}
			// Lowered, not free of upper-case runes: some have no
			// lower-case form (ϓ, U+03D3), so ToLower keeps them.
			if lower := strings.ToLower(tok); lower != tok {
				t.Fatalf("token %q not lower-cased (want %q)", tok, lower)
			}
			for _, r := range tok {
				if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
					t.Fatalf("token %q contains separator rune %q", tok, r)
				}
			}
		}
		// One text's term rows: its distinct tokens in order, IDs 0..n-1.
		distinct := slices.Clone(tokens)
		slices.Sort(distinct)
		distinct = slices.Compact(distinct)
		tr := NewTermRows([]string{text})
		if !slices.Equal(tr.Terms, distinct) || len(tr.Rows[0]) != len(distinct) {
			t.Fatalf("term rows %v %v, want terms %v", tr.Terms, tr.Rows[0], distinct)
		}
		for k, id := range tr.Rows[0] {
			if int(id) != k {
				t.Fatalf("row %v, want IDs 0..%d", tr.Rows[0], len(distinct)-1)
			}
		}
	})
}

func FuzzSearchIsSubsetOfMatches(f *testing.F) {
	f.Add("alpha beta", "alpha")
	f.Add("x y z", "y z")
	f.Add("", "nothing")
	f.Fuzz(func(t *testing.T, doc, query string) {
		texts := []string{doc, doc + " extra", "unrelated filler words"}
		ix := New(texts, 1)
		q := Query{Terms: Tokenize(query)}
		got := ix.Search(q)
		if len(got) > 1 {
			t.Fatalf("top-k cap violated: %v", got)
		}
		all := map[int]bool{}
		for _, id := range ix.Matches(q) {
			all[id] = true
		}
		for _, id := range got {
			if !all[id] {
				t.Fatalf("search result %d not among matches", id)
			}
			if id < 0 || id >= len(texts) {
				t.Fatalf("result id %d out of range", id)
			}
		}
		// Every token's postings equal a brute-force scan of the texts.
		for _, text := range texts {
			for _, tok := range Tokenize(text) {
				var want []int
				for id, other := range texts {
					if slices.Contains(Tokenize(other), tok) {
						want = append(want, id)
					}
				}
				if got := ix.Matches(Query{Terms: []string{tok}}); !slices.Equal(got, want) {
					t.Fatalf("Matches(%q) = %v, want %v", tok, got, want)
				}
			}
		}
	})
}
