package optimizer

import (
	"math"
	"math/bits"
	"testing"

	"joinopt/internal/model"
	"joinopt/internal/querygraph"
	"joinopt/internal/relation"
)

// synthClasses builds a deterministic synthetic Classes callback: counts
// depend only on (subset, mask), so the DP and the brute force see the same
// cardinalities.
func synthClasses(n int) func(uint64) map[relation.ClassMask]int {
	return func(subset uint64) map[relation.ClassMask]int {
		k := bits.OnesCount64(subset)
		out := map[relation.ClassMask]int{}
		for m := relation.ClassMask(0); m < 1<<k; m++ {
			// All-good classes are populated most, mixed classes less; vary
			// by subset so different tree shapes price differently.
			out[m] = 3 + int(m) + bits.OnesCount64(subset*2654435761)%7
		}
		return out
	}
}

// synthNaryInputs builds a k-relation synthetic input set with SC/FS/AQG
// all available (the per-side configuration space is 2 θ × 3 kinds).
func synthNaryInputs(k int, tj float64) *NaryInputs {
	mk := func(tp, fp float64, d int) *model.RelationParams {
		return &model.RelationParams{
			D: d, Dg: d * 3 / 10, Db: d / 5, Ag: 60, Ab: 30,
			GoodFreq:      []float64{0.5, 0.3, 0.2},
			BadFreq:       []float64{0.7, 0.3},
			TP:            tp,
			FP:            fp,
			BadInGoodFrac: 0.3,
			Ctp:           0.9,
			Cfp:           0.2,
			AQG: []model.QueryParam{
				{Hits: 40, GoodHits: 25, BadHits: 5},
				{Hits: 30, GoodHits: 15, BadHits: 5},
				{Hits: 25, GoodHits: 10, BadHits: 5},
			},
		}
	}
	in := &NaryInputs{
		Thetas:  []float64{0.4, 0.8},
		Classes: synthClasses(k),
		TJ:      tj,
		Workers: 1,
	}
	for i := 0; i < k; i++ {
		d := 400 + 60*i // asymmetric sides so tree shape matters
		in.P = append(in.P, []*model.RelationParams{mk(0.85, 0.12, d), mk(0.6, 0.04, d)})
		in.Costs = append(in.Costs, model.Costs{TR: 1, TE: 2, TF: 0.1, TQ: 0.5})
	}
	return in
}

// allBushyTrees enumerates every bushy, cross-product-free join tree over
// the connected set s (brute force, mirror duplicates suppressed by
// anchoring the lowest bit in the left subtree).
func allBushyTrees(g *querygraph.Graph, s uint64) []*NaryNode {
	if bits.OnesCount64(s) == 1 {
		return []*NaryNode{{Set: s, Rel: bits.TrailingZeros64(s)}}
	}
	var out []*NaryNode
	low := s & (-s)
	// Iterate subsets s1 of s containing the lowest bit.
	rest := s &^ low
	for sub := uint64(0); ; sub = (sub - rest) & rest {
		s1 := low | sub
		s2 := s &^ s1
		if s2 != 0 && g.ConnectedMask(s1) && g.ConnectedMask(s2) && g.Neighbors(s1)&s2 != 0 {
			for _, l := range allBushyTrees(g, s1) {
				for _, r := range allBushyTrees(g, s2) {
					out = append(out, &NaryNode{Set: s, Rel: -1, Left: l, Right: r})
				}
			}
		}
		if sub == rest {
			break
		}
	}
	return out
}

// internalSets returns the relation sets of the internal nodes of n in
// post-order — the sets whose intermediate cardinalities the merge cost
// charges.
func internalSets(n *NaryNode) []uint64 {
	if n == nil || n.Leaf() {
		return nil
	}
	return append(append(internalSets(n.Left), internalSets(n.Right)...), n.Set)
}

func treeMergeTuples(t *NaryNode, card func(uint64) float64) float64 {
	var total float64
	for _, s := range internalSets(t) {
		total += card(s)
	}
	return total
}

// TestDPTreeOptimalByBruteForce is the exhaustiveness property: for k ≤ 4
// on several graph shapes, the DP's chosen tree cost must match the minimum
// over ALL bushy trees enumerated by brute force — the DP neither misses a
// cheaper tree nor invents an invalid one.
func TestDPTreeOptimalByBruteForce(t *testing.T) {
	shapes := []struct {
		name  string
		n     int
		joins [][2]int
	}{
		{"chain3", 3, [][2]int{{0, 1}, {1, 2}}},
		{"chain4", 4, [][2]int{{0, 1}, {1, 2}, {2, 3}}},
		{"star4", 4, [][2]int{{0, 1}, {0, 2}, {0, 3}}},
		{"cycle4", 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}},
		{"clique4", 4, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}},
	}
	for _, sh := range shapes {
		g, err := querygraph.New(sh.n, sh.joins)
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		in := synthNaryInputs(sh.n, 0.05)
		req := Requirement{TauG: 10, TauB: 1 << 30}
		best, evals, err := ChooseNary(g, in, req)
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		if !best.Feasible || best.Tree == nil {
			t.Fatalf("%s: no feasible plan", sh.name)
		}
		// Rebuild the cardinality function at the chosen leaf efforts and
		// compare the DP tree against every bushy tree.
		occ := make([]sideOcc, sh.n)
		for i, l := range best.Leaves {
			p := in.P[l.Rel][thetaIndex(in.Thetas, l.Theta)]
			if occ[i], err = occAt(p, l.X, l.Effort); err != nil {
				t.Fatal(err)
			}
		}
		card := func(set uint64) float64 {
			return subsetCard(in.subsetClasses(set), querygraph.Bits(set), occ)
		}
		trees := allBushyTrees(g, g.All())
		if len(trees) == 0 {
			t.Fatalf("%s: brute force found no trees", sh.name)
		}
		bruteMin := math.Inf(1)
		for _, tr := range trees {
			if c := treeMergeTuples(tr, card); c < bruteMin {
				bruteMin = c
			}
		}
		if got := treeMergeTuples(best.Tree, card); got != best.MergeTuples {
			t.Errorf("%s: reported MergeTuples %.4f but recomputed %.4f", sh.name, best.MergeTuples, got)
		}
		if best.MergeTuples > bruteMin+1e-9 {
			t.Errorf("%s: DP tree %s costs %.4f, brute-force minimum is %.4f",
				sh.name, best.Tree, best.MergeTuples, bruteMin)
		}
		// Every feasible evaluation's tree must also be brute-force optimal
		// for its own efforts (spot-check the winner only — the efforts
		// differ per config).
		_ = evals
	}
}

func thetaIndex(thetas []float64, th float64) int {
	for i, t := range thetas {
		if t == th {
			return i
		}
	}
	return -1
}

// TestChooseNaryDeterministicUnderWorkers pins the parallel sweep contract:
// any worker count returns the identical plan, leaves, tree, and numbers.
func TestChooseNaryDeterministicUnderWorkers(t *testing.T) {
	g, err := querygraph.Chain(4)
	if err != nil {
		t.Fatal(err)
	}
	req := Requirement{TauG: 12, TauB: 1 << 30}
	var ref NaryEval
	for wi, workers := range []int{1, 2, 3, 8} {
		in := synthNaryInputs(4, 0.05)
		in.Workers = workers
		best, evals, err := ChooseNary(g, in, req)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if wi == 0 {
			ref = best
			if len(evals) == 0 {
				t.Fatal("no evaluations returned")
			}
			continue
		}
		if best.PlanString() != ref.PlanString() || best.Time != ref.Time ||
			best.Quality != ref.Quality || best.MergeTuples != ref.MergeTuples {
			t.Errorf("workers=%d diverged: %s t=%v vs %s t=%v",
				workers, best.PlanString(), best.Time, ref.PlanString(), ref.Time)
		}
		for i := range ref.Leaves {
			if best.Leaves[i] != ref.Leaves[i] {
				t.Errorf("workers=%d leaf %d diverged: %+v vs %+v", workers, i, best.Leaves[i], ref.Leaves[i])
			}
		}
	}
}

// TestChooseNaryRespectsRequirement: raising τg raises (or keeps) the leaf
// efforts; an impossible requirement errors instead of returning a plan.
func TestChooseNaryRespectsRequirement(t *testing.T) {
	g, err := querygraph.Chain(3)
	if err != nil {
		t.Fatal(err)
	}
	in := synthNaryInputs(3, 0)
	small, _, err := ChooseNary(g, in, Requirement{TauG: 2, TauB: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	large, _, err := ChooseNary(g, in, Requirement{TauG: 30, TauB: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if large.Time < small.Time {
		t.Errorf("harder requirement predicted cheaper: %.2f < %.2f", large.Time, small.Time)
	}
	if large.Quality.Good < 30 {
		t.Errorf("chosen plan misses τg: %+v", large.Quality)
	}
	if _, _, err := ChooseNary(g, in, Requirement{TauG: 1 << 30, TauB: 0}); err == nil {
		t.Error("impossible requirement returned a plan")
	}
}

// TestChooseNaryMergeCostSteersTree: with a hand-built cardinality function
// that makes one internal set vastly expensive, the DP must route around it.
func TestChooseNaryMergeCostSteersTree(t *testing.T) {
	g, err := querygraph.New(4, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	// Clique: every tree shape is legal. Penalize any internal set
	// containing both relations 0 and 1 except the root, so the optimal
	// trees keep 0 and 1 apart until the final join.
	card := func(set uint64) float64 {
		if set == g.All() {
			return 10
		}
		if set&0b11 == 0b11 {
			return 1000
		}
		return float64(bits.OnesCount64(set))
	}
	tree, cost := dpTree(g, card)
	for _, s := range internalSets(tree) {
		if s != g.All() && s&0b11 == 0b11 {
			t.Errorf("DP tree %s routes through penalized set %b (cost %.1f)", tree, s, cost)
		}
	}
	want := card(g.All()) + 2 + 2 // root + two cheap pairs {0,x} and {1,y}
	if cost != want {
		t.Errorf("DP cost %.1f, want %.1f (tree %s)", cost, want, tree)
	}
}

// TestNaryPlanString smoke-checks the plan rendering.
func TestNaryPlanString(t *testing.T) {
	g, _ := querygraph.Chain(3)
	in := synthNaryInputs(3, 0)
	best, _, err := ChooseNary(g, in, Requirement{TauG: 4, TauB: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	s := best.PlanString()
	if s == "" || s == "(no plan)" {
		t.Errorf("empty plan rendering: %q", s)
	}
	for _, sub := range []string{"R1", "R2", "R3", "θ=", "X="} {
		if !contains(s, sub) {
			t.Errorf("plan rendering %q missing %q", s, sub)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// BenchmarkNaryEnumerator is the enumerator benchmark wired into make
// check: a k=5 chain over the full synthetic configuration space
// (2 θ × 3 kinds per side → 7776 configurations, each with its own effort
// search and DPccp pass).
func BenchmarkNaryEnumerator(b *testing.B) {
	g, err := querygraph.Chain(5)
	if err != nil {
		b.Fatal(err)
	}
	req := Requirement{TauG: 12, TauB: 1 << 30}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := synthNaryInputs(5, 0.05)
		in.Workers = 0 // one worker per CPU
		if _, _, err := ChooseNary(g, in, req); err != nil {
			b.Fatal(err)
		}
	}
}
