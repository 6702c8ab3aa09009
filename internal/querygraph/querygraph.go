// Package querygraph represents k-relation join workloads as query graphs
// and enumerates their connected subgraphs — the substrate of the DP
// join-order enumerator (internal/optimizer's ChooseNary). A query names k
// extracted relations and the join predicates between them; every predicate
// equates the relations' shared join attribute (the paper's single-attribute
// natural-join setting), so an edge carries no payload beyond its endpoints.
//
// The enumeration is DPccp-style (Moerkotte & Neumann, "Analysis of Two
// Existing and One New Dynamic Programming Algorithm for the Generation of
// Optimal Bushy Join Trees without Cross Products"): connected subgraphs are
// emitted exactly once each, and CsgCmpPairs yields every
// csg-cmp pair — a connected subgraph S1 and a connected, disjoint S2 with
// at least one edge between them — exactly once per unordered pair. The
// enumerator therefore considers exactly the bushy, cross-product-free plan
// space, in deterministic order.
package querygraph

import (
	"fmt"
	"math/bits"
)

// MaxRelations bounds the query size. Class-mask composition in
// internal/model supports 8 relations; the subset DP is exponential in k, so
// the practical bound is lower still.
const MaxRelations = 6

// Spec is a declarative k-relation join query: relation task names and the
// join predicates between them (pairs of relation indices, each predicate on
// the shared join attribute). An empty Joins list defaults to the chain
// R0–R1–…–R(k−1).
type Spec struct {
	Relations []string
	Joins     [][2]int
}

// Graph builds and validates the query graph of the spec.
func (s Spec) Graph() (*Graph, error) {
	n := len(s.Relations)
	joins := s.Joins
	if len(joins) == 0 {
		for i := 0; i+1 < n; i++ {
			joins = append(joins, [2]int{i, i + 1})
		}
	}
	return New(n, joins)
}

// Graph is a query graph over relations 0..N−1 with bitset adjacency.
type Graph struct {
	N   int
	adj []uint64 // adj[i]: neighbours of relation i
}

// New builds a graph over n relations from join-predicate edges. The graph
// must be simple (no self joins, no duplicate predicates) and connected —
// a disconnected query would demand a cross product, which the plan space
// deliberately excludes.
func New(n int, joins [][2]int) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("querygraph: need at least 2 relations, got %d", n)
	}
	if n > MaxRelations {
		return nil, fmt.Errorf("querygraph: at most %d relations supported, got %d", MaxRelations, n)
	}
	g := &Graph{N: n, adj: make([]uint64, n)}
	for _, j := range joins {
		a, b := j[0], j[1]
		if a < 0 || a >= n || b < 0 || b >= n {
			return nil, fmt.Errorf("querygraph: join [%d %d] references a relation outside 0..%d", a, b, n-1)
		}
		if a == b {
			return nil, fmt.Errorf("querygraph: self join [%d %d]", a, b)
		}
		if g.adj[a]&(1<<b) != 0 {
			return nil, fmt.Errorf("querygraph: duplicate join predicate [%d %d]", a, b)
		}
		g.adj[a] |= 1 << b
		g.adj[b] |= 1 << a
	}
	if !g.ConnectedMask(g.All()) {
		return nil, fmt.Errorf("querygraph: join graph is not connected (a disconnected query requires a cross product)")
	}
	return g, nil
}

// Chain returns the chain graph R0–R1–…–R(n−1).
func Chain(n int) (*Graph, error) {
	var joins [][2]int
	for i := 0; i+1 < n; i++ {
		joins = append(joins, [2]int{i, i + 1})
	}
	return New(n, joins)
}

// All returns the full relation set.
func (g *Graph) All() uint64 { return (1 << g.N) - 1 }

// Neighbors returns N(S): the union of the members' adjacency sets minus S.
func (g *Graph) Neighbors(s uint64) uint64 {
	var n uint64
	for m := s; m != 0; m &= m - 1 {
		n |= g.adj[bits.TrailingZeros64(m)]
	}
	return n &^ s
}

// ConnectedMask reports whether the induced subgraph on s is connected.
func (g *Graph) ConnectedMask(s uint64) bool {
	if s == 0 {
		return false
	}
	reach := s & (-s) // lowest member
	for {
		grown := reach | (g.Neighbors(reach) & s)
		if grown == reach {
			return reach == s
		}
		reach = grown
	}
}

// ConnectedSubgraphs emits every connected subgraph of the query graph
// exactly once, in the DPccp enumeration order (which emits every proper
// subgraph before any superset that contains it, so a subset DP can fold
// over the stream directly).
func (g *Graph) ConnectedSubgraphs(emit func(s uint64)) {
	for i := g.N - 1; i >= 0; i-- {
		v := uint64(1) << i
		emit(v)
		g.csgRec(v, v|(v-1), emit)
	}
}

// csgRec is EnumerateCsgRec: grow s by non-empty subsets of its neighbours
// outside the exclusion set x, emitting each enlarged subgraph.
func (g *Graph) csgRec(s, x uint64, emit func(uint64)) {
	n := g.Neighbors(s) &^ x
	if n == 0 {
		return
	}
	for sub := subsetFirst(n); sub != 0; sub = subsetNext(sub, n) {
		emit(s | sub)
	}
	for sub := subsetFirst(n); sub != 0; sub = subsetNext(sub, n) {
		g.csgRec(s|sub, x|n, emit)
	}
}

// subsetFirst/subsetNext enumerate the non-empty subsets of mask in
// deterministic increasing numeric order.
func subsetFirst(mask uint64) uint64 {
	if mask == 0 {
		return 0
	}
	return mask & (-mask)
}

func subsetNext(sub, mask uint64) uint64 {
	next := (sub - mask) & mask
	if next == 0 {
		return 0
	}
	return next
}

// CsgCmpPairs emits every csg-cmp pair (s1, s2) exactly once per unordered
// pair: both sides connected, disjoint, and joined by at least one edge.
// The union s1|s2 of every emitted pair is itself a connected subgraph, and
// every pair whose union is a set S is emitted before any pair with a
// strictly larger union that contains S would require it — the order a
// subset DP needs.
func (g *Graph) CsgCmpPairs(emit func(s1, s2 uint64)) {
	g.ConnectedSubgraphs(func(s1 uint64) {
		g.complements(s1, func(s2 uint64) { emit(s1, s2) })
	})
}

// complements is EnumerateCmp: emit every connected s2 disjoint from s1,
// adjacent to it, and whose minimum element exceeds s1's (so each unordered
// pair surfaces exactly once).
func (g *Graph) complements(s1 uint64, emit func(uint64)) {
	min := s1 & (-s1)
	x := (min | (min - 1)) | s1
	n := g.Neighbors(s1) &^ x
	if n == 0 {
		return
	}
	// Descending over the seed vertices, per the paper.
	for i := g.N - 1; i >= 0; i-- {
		v := uint64(1) << i
		if n&v == 0 {
			continue
		}
		emit(v)
		g.csgRec(v, x|(n&(v|(v-1))), emit)
	}
}

// Bits returns the set members in ascending order.
func Bits(mask uint64) []int {
	out := make([]int, 0, bits.OnesCount64(mask))
	for m := mask; m != 0; m &= m - 1 {
		out = append(out, bits.TrailingZeros64(m))
	}
	return out
}
