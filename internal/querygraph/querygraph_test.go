package querygraph

import (
	"math/bits"
	"testing"
)

// refConnected is an independent reachability check used to validate the
// bitset implementation.
func refConnected(n int, edges [][2]int, s uint64) bool {
	if s == 0 {
		return false
	}
	start := bits.TrailingZeros64(s)
	seen := uint64(1) << start
	queue := []int{start}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, e := range edges {
			var w int
			switch v {
			case e[0]:
				w = e[1]
			case e[1]:
				w = e[0]
			default:
				continue
			}
			if s&(1<<w) == 0 || seen&(1<<w) != 0 {
				continue
			}
			seen |= 1 << w
			queue = append(queue, w)
		}
	}
	return seen == s
}

func hasCrossEdge(edges [][2]int, s1, s2 uint64) bool {
	for _, e := range edges {
		a, b := uint64(1)<<e[0], uint64(1)<<e[1]
		if (s1&a != 0 && s2&b != 0) || (s1&b != 0 && s2&a != 0) {
			return true
		}
	}
	return false
}

var shapes = []struct {
	name  string
	n     int
	edges [][2]int
}{
	{"chain3", 3, [][2]int{{0, 1}, {1, 2}}},
	{"chain4", 4, [][2]int{{0, 1}, {1, 2}, {2, 3}}},
	{"chain6", 6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}},
	{"star4", 4, [][2]int{{0, 1}, {0, 2}, {0, 3}}},
	{"star5", 5, [][2]int{{2, 0}, {2, 1}, {2, 3}, {2, 4}}},
	{"cycle4", 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}},
	{"cycle5", 5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}},
	{"clique4", 4, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}},
	{"clique5", 5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}}},
	{"kite5", 5, [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}}},
}

func TestConnectedMaskMatchesReference(t *testing.T) {
	for _, sh := range shapes {
		g, err := New(sh.n, sh.edges)
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		for s := uint64(1); s < 1<<sh.n; s++ {
			want := refConnected(sh.n, sh.edges, s)
			if got := g.ConnectedMask(s); got != want {
				t.Errorf("%s: ConnectedMask(%b) = %v, want %v", sh.name, s, got, want)
			}
		}
	}
}

// TestConnectedSubgraphsExactlyOnce: the DPccp stream must emit each
// connected subgraph exactly once and nothing else.
func TestConnectedSubgraphsExactlyOnce(t *testing.T) {
	for _, sh := range shapes {
		g, err := New(sh.n, sh.edges)
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		got := map[uint64]int{}
		g.ConnectedSubgraphs(func(s uint64) { got[s]++ })
		for s := uint64(1); s < 1<<sh.n; s++ {
			want := 0
			if refConnected(sh.n, sh.edges, s) {
				want = 1
			}
			if got[s] != want {
				t.Errorf("%s: subgraph %b emitted %d times, want %d", sh.name, s, got[s], want)
			}
		}
	}
}

// TestCsgCmpPairsComplete: every valid unordered csg-cmp pair appears exactly
// once, and nothing invalid appears. The brute-force reference enumerates all
// (s1, s2) partitions directly.
func TestCsgCmpPairsComplete(t *testing.T) {
	for _, sh := range shapes {
		g, err := New(sh.n, sh.edges)
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		type pair struct{ a, b uint64 }
		norm := func(a, b uint64) pair {
			if a > b {
				a, b = b, a
			}
			return pair{a, b}
		}
		got := map[pair]int{}
		g.CsgCmpPairs(func(s1, s2 uint64) {
			if s1&s2 != 0 {
				t.Fatalf("%s: overlapping pair %b/%b", sh.name, s1, s2)
			}
			got[norm(s1, s2)]++
		})
		want := map[pair]bool{}
		for s1 := uint64(1); s1 < 1<<sh.n; s1++ {
			if !refConnected(sh.n, sh.edges, s1) {
				continue
			}
			for s2 := uint64(1); s2 < 1<<sh.n; s2++ {
				if s1&s2 != 0 || s2 <= s1 || !refConnected(sh.n, sh.edges, s2) {
					continue
				}
				if hasCrossEdge(sh.edges, s1, s2) {
					want[pair{s1, s2}] = true
				}
			}
		}
		for p := range want {
			if got[p] != 1 {
				t.Errorf("%s: pair %b+%b emitted %d times, want 1", sh.name, p.a, p.b, got[p])
			}
		}
		for p, c := range got {
			if !want[p] {
				t.Errorf("%s: spurious pair %b+%b emitted %d times", sh.name, p.a, p.b, c)
			}
		}
	}
}

// TestCsgCmpOrderUsableForDP: by the time a pair with union U is emitted,
// every connected proper subset of U has already been emitted by
// ConnectedSubgraphs-driven pairs — i.e. a DP folding over the stream can
// always look up both sides. We check the weaker but sufficient invariant
// directly: when (s1,s2) arrives, all pairs whose union is s1 (if |s1|>1)
// and s2 (if |s2|>1) have arrived before.
func TestCsgCmpOrderUsableForDP(t *testing.T) {
	for _, sh := range shapes {
		g, err := New(sh.n, sh.edges)
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		unionPairs := map[uint64]int{} // union -> pairs seen so far
		wantPairs := map[uint64]int{}  // union -> total pairs with that union
		g.CsgCmpPairs(func(s1, s2 uint64) { wantPairs[s1|s2]++ })
		g.CsgCmpPairs(func(s1, s2 uint64) {
			for _, side := range []uint64{s1, s2} {
				if bits.OnesCount64(side) > 1 && unionPairs[side] != wantPairs[side] {
					t.Fatalf("%s: pair %b+%b arrived before side %b was fully built (%d/%d)",
						sh.name, s1, s2, side, unionPairs[side], wantPairs[side])
				}
			}
			unionPairs[s1|s2]++
		})
	}
}

func TestSpecDefaultsToChain(t *testing.T) {
	s := Spec{Relations: []string{"HQ", "EX", "MG", "HQ"}}
	g, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 4 {
		t.Fatalf("N = %d, want 4", g.N)
	}
	hasEdge := func(a, b int) bool { return g.Neighbors(1<<a)&(1<<b) != 0 }
	wantEdges := [][2]int{{0, 1}, {1, 2}, {2, 3}}
	for _, e := range wantEdges {
		if !hasEdge(e[0], e[1]) {
			t.Errorf("missing chain edge %v", e)
		}
	}
	if hasEdge(0, 2) || hasEdge(0, 3) || hasEdge(1, 3) {
		t.Error("unexpected non-chain edge in default graph")
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		joins [][2]int
	}{
		{"one relation", 1, nil},
		{"too many relations", MaxRelations + 1, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}}},
		{"out of range", 3, [][2]int{{0, 1}, {1, 3}}},
		{"negative", 3, [][2]int{{-1, 1}, {1, 2}}},
		{"self join", 3, [][2]int{{0, 0}, {0, 1}, {1, 2}}},
		{"duplicate", 3, [][2]int{{0, 1}, {1, 0}, {1, 2}}},
		{"disconnected", 4, [][2]int{{0, 1}, {2, 3}}},
	}
	for _, c := range cases {
		if _, err := New(c.n, c.joins); err == nil {
			t.Errorf("%s: New accepted invalid input", c.name)
		}
	}
}

func TestBits(t *testing.T) {
	got := Bits(0b101101)
	want := []int{0, 2, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("Bits = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Bits = %v, want %v", got, want)
		}
	}
}
