package classifier

import (
	"strings"
	"testing"

	"joinopt/internal/index"
)

// FuzzRulesAcceptSet checks the index route Filtered Scan's decision
// tables take for a rule set against Classify. docs holds one document per
// line; rules holds one rule per line with its terms separated by '|', and
// an empty line is a rule with no terms. Terms may be anything: upper
// case, punctuation, several words, empty.
func FuzzRulesAcceptSet(f *testing.F) {
	f.Add("Acme is headquartered in Pine Bluff.\nno cue here\nHeadquarters: ACME", "headquartered\nacme|pine")
	f.Add("the firm is headquartered with offices downtown\nthe firm is headquartered downtown", "headquartered|offices\nfirm|Downtown")
	f.Add("Straße 42 İstanbul ǅemal\nŞişli x1 ϓ", "straße|42\ni̇stanbul\nǆemal\nx1|şişli\nϓ")
	f.Add("a b c\n\nd", "\na b\n|c")
	f.Add("", "")
	f.Fuzz(func(t *testing.T, docs, rules string) {
		texts := strings.Split(docs, "\n")
		r := &Rules{}
		for _, line := range strings.Split(rules, "\n") {
			var rule Rule
			if line != "" {
				rule.Terms = strings.Split(line, "|")
			}
			r.Set = append(r.Set, rule)
		}
		got := r.acceptSet(index.New(texts, 0), len(texts))
		for i, text := range texts {
			if want := r.Classify(text); got[i] != want {
				t.Fatalf("document %d %q under rules %q: index route says %t, Classify %t", i, text, r.Set, got[i], want)
			}
		}
	})
}
