package join

import "joinopt/internal/relation"

// N-ary join output — the paper's stated future work (§III-C restricts the
// analysis to binary joins). NaryExec runs the Independent Join over n
// relations joined on the shared attribute: each side extracts independently
// under its own retrieval strategy, and the output composition generalizes
// Equation 1 to per-value products across all sides:
// |Tgood⋈| = Σ_a Π_i gr_i(a).

// MultiState is the observable progress of an n-ary join execution.
type MultiState struct {
	Rels []*relation.Extracted

	// GoodTuples is Σ_a Π_i gr_i(a); BadTuples the complement of the total
	// per-value occurrence product.
	GoodTuples int
	BadTuples  int

	DocsProcessed []int
	DocsRetrieved []int
	DocsFiltered  []int
	Queries       []int
	Time          float64

	totalTuples int
}

// addTuple records one occurrence on side i and updates the n-way product
// counters incrementally: adding one good occurrence of value a on side i
// raises the good product by Π_{j≠i} gr_j(a) and the total product by
// Π_{j≠i} (gr_j(a) + br_j(a)).
func (st *MultiState) addTuple(i int, e relation.Entry) {
	deltaGood, deltaTotal := 1, 1
	for j := range st.Rels {
		if j == i {
			continue
		}
		g, b := st.Rels[j].Occ(e.Value)
		deltaGood *= g
		deltaTotal *= g + b
		if deltaTotal == 0 {
			break
		}
	}
	st.Rels[i].Add(e)
	st.totalTuples += deltaTotal
	if e.Good {
		st.GoodTuples += deltaGood
	}
	st.BadTuples = st.totalTuples - st.GoodTuples
}
