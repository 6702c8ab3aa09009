package joinopt_test

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"joinopt"
	"joinopt/internal/extract"
	"joinopt/internal/relation"
	"joinopt/internal/workload"
)

// textKeyedExtract is the extraction the executors ran when the candidate
// memo was keyed by document text: every candidate occurrence scoring at
// least θ, deduplicated through a set, sorted by tuple.
func textKeyedExtract(sys *extract.System, text string, theta float64) []relation.Tuple {
	seen := map[relation.Tuple]bool{}
	var out []relation.Tuple
	for _, c := range sys.Scan(text) {
		if c.Score >= theta && !seen[c.Tuple] {
			seen[c.Tuple] = true
			out = append(out, c.Tuple)
		}
	}
	slices.SortFunc(out, func(a, b relation.Tuple) int {
		if c := strings.Compare(a.A1, b.A1); c != 0 {
			return c
		}
		return strings.Compare(a.A2, b.A2)
	})
	return out
}

// TestExtractionTableMatchesTextKeyedExtract: on every document of an
// HQ ⋈ EX and an MG ⋈ EX workload (MG pairs two companies), at each knob
// setting the optimizer explores, extraction through the ID table equals
// the text-keyed extraction, and so does the uncached text entry point on
// the first half of the document, the copy a truncated fetch hands out.
func TestExtractionTableMatchesTextKeyedExtract(t *testing.T) {
	for _, pair := range [][2]string{{"HQ", "EX"}, {"MG", "EX"}} {
		w, err := workload.Pair(workload.Params{NumDocs: 2000, Seed: 3}, pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			sys := w.Sys[i]
			for _, theta := range joinopt.Knobs {
				for id, d := range w.DB[i].Docs {
					if got, want := w.Tables[i].Extract(id, theta), textKeyedExtract(sys, d.Text, theta); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s doc %d θ=%g: table %v, text-keyed %v", w.Task[i], id, theta, got, want)
					}
					half := d.Text[:len(d.Text)/2]
					if got, want := sys.Extract(half, theta), textKeyedExtract(sys, half, theta); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s doc %d θ=%g, first half: Extract %v, text-keyed %v", w.Task[i], id, theta, got, want)
					}
				}
			}
		}
	}
}
