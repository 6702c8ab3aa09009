package index_test

import (
	"slices"
	"sync"
	"testing"

	"joinopt/internal/index"
	"joinopt/internal/workload"
)

// goldValues returns the join values of side i's gold set, sorted.
func goldValues(w *workload.Workload, i int) []string {
	seen := map[string]bool{}
	g := w.DB[i].Gold(w.Task[i])
	for tup := range g.Good {
		seen[tup.A1] = true
	}
	for tup := range g.Bad {
		seen[tup.A1] = true
	}
	var out []string
	for v := range seen {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// TestSearchValueMatchesSearchInto: for every join value of an 8k
// workload's gold sets, on both sides, the memoized value query returns
// SearchInto(QueryFromValue(v)) — on its first call, which searches, and on
// a later call, which returns the memoized slice itself — including values
// whose matches exceed the top-k cap.
func TestSearchValueMatchesSearchInto(t *testing.T) {
	w, err := workload.HQJoinEX(workload.Params{NumDocs: 8000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	capped := 0
	var buf []int
	for i, ix := range w.Ix {
		for _, v := range goldValues(w, i) {
			q := index.QueryFromValue(v)
			buf = ix.SearchInto(q, buf[:0])
			first := ix.SearchValue(v)
			if !slices.Equal(first, buf) {
				t.Fatalf("side %d value %q: SearchValue %v, SearchInto %v", i+1, v, first, buf)
			}
			again := ix.SearchValue(v)
			if !slices.Equal(again, buf) || len(again) > 0 && &again[0] != &first[0] {
				t.Fatalf("side %d value %q: memoized SearchValue %v is not the first call's %v", i+1, v, again, first)
			}
			if len(ix.Matches(q)) > ix.TopK() {
				capped++
			}
		}
	}
	if capped == 0 {
		t.Error("no gold value has more matches than top-k; the cap path is untested")
	}
}

// TestSearchValueConcurrentReaders: goroutines racing on the same values of
// one index, memoized or not yet, all get the SearchInto result.
func TestSearchValueConcurrentReaders(t *testing.T) {
	w, err := workload.HQJoinEX(workload.Params{NumDocs: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ix := w.Ix[1]
	values := goldValues(w, 1)
	want := make([][]int, len(values))
	for k, v := range values {
		want[k] = ix.SearchInto(index.QueryFromValue(v), nil)
	}
	for round := 0; round < 2; round++ {
		ix.ResetMemo()
		var wg sync.WaitGroup
		errs := make(chan string, 4)
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for k := range values {
					k := (k + r*len(values)/4) % len(values)
					if got := ix.SearchValue(values[k]); !slices.Equal(got, want[k]) {
						errs <- values[k]
						return
					}
				}
			}(r)
		}
		wg.Wait()
		close(errs)
		for v := range errs {
			t.Errorf("round %d: concurrent SearchValue(%q) differs from SearchInto", round, v)
		}
	}
}
