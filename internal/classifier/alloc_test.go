//go:build !race

// The race detector makes sync.Pool drop pooled items at random, so
// allocation budgets only hold without it.

package classifier

import (
	"strings"
	"testing"
	"unicode"
)

// TestRulesClassifyAllocBudget: Filtered Scan and Measure classify every
// document, so with the pooled scratch warm a call may allocate only the
// lowered copies of the document's mixed-case tokens — never a token slice
// or a term set per document. The unpooled classifier spent about 15
// allocations per document here.
func TestRulesClassifyAllocBudget(t *testing.T) {
	r := trainedRules(t)
	docs := trainDB(t, 2).Docs
	var mixed int
	for _, d := range docs {
		r.Classify(d.Text)
		for _, span := range strings.FieldsFunc(d.Text, func(c rune) bool { return !unicode.IsLetter(c) && !unicode.IsDigit(c) }) {
			if strings.ToLower(span) != span {
				mixed++
			}
		}
	}
	perDoc := testing.AllocsPerRun(5, func() {
		for _, d := range docs {
			r.Classify(d.Text)
		}
	}) / float64(len(docs))
	// One allocation of slack per document covers refilling the pool after
	// a garbage collection empties it.
	budget := float64(mixed)/float64(len(docs)) + 1
	if perDoc > budget {
		t.Errorf("Classify with warm scratch: %.2f allocs per document, want <= %.2f", perDoc, budget)
	}
}
