package join

import (
	"fmt"
	"math/bits"

	"joinopt/internal/pipeline"
	"joinopt/internal/relation"
	"joinopt/internal/retrieval"
	"joinopt/internal/shard"
)

// Tree-shaped n-ary execution: NaryExec runs the n-ary Independent Join
// over the join tree an optimizer chose (optimizer.ChooseNary) — per-side
// retrieval strategies and effort caps, with exact merge-cost accounting at
// every internal node of the tree. At TJ = 0 with no caps and no pipeline
// engine the tree only adds intermediate-cardinality counters: the
// execution is bit-identical to the flat n-ary IDJN it replaced, as
// internal/workload/testdata/multi_idjn.golden pins.

// TreeNode is a join-tree node: a leaf names a relation index, an internal
// node joins its two children. It mirrors the optimizer's chosen tree
// without importing it (the model layer sits between the two packages).
type TreeNode struct {
	Rel         int // leaf: relation index; internal: -1
	Left, Right *TreeNode
}

// LeafChain returns the left-deep chain tree R0⋈R1⋈…⋈R(n−1).
func LeafChain(n int) *TreeNode {
	t := &TreeNode{Rel: 0}
	for i := 1; i < n; i++ {
		t = &TreeNode{Rel: -1, Left: t, Right: &TreeNode{Rel: i}}
	}
	return t
}

// set computes the relation bitmask covered by the subtree, validating
// leaves against n.
func (t *TreeNode) set(n int) (uint64, error) {
	if t == nil {
		return 0, fmt.Errorf("join: nil tree node")
	}
	if t.Left == nil && t.Right == nil {
		if t.Rel < 0 || t.Rel >= n {
			return 0, fmt.Errorf("join: tree leaf references relation %d of %d", t.Rel, n)
		}
		return 1 << t.Rel, nil
	}
	if t.Left == nil || t.Right == nil {
		return 0, fmt.Errorf("join: tree node with exactly one child")
	}
	l, err := t.Left.set(n)
	if err != nil {
		return 0, err
	}
	r, err := t.Right.set(n)
	if err != nil {
		return 0, err
	}
	if l&r != 0 {
		return 0, fmt.Errorf("join: tree joins overlapping relation sets")
	}
	return l | r, nil
}

// internalSets collects the relation sets of the internal nodes in
// post-order (root last).
func (t *TreeNode) internalSets(n int) ([]uint64, error) {
	full, err := t.set(n)
	if err != nil {
		return nil, err
	}
	if full != (1<<n)-1 {
		return nil, fmt.Errorf("join: tree covers relation set %b, want all %d relations", full, n)
	}
	var out []uint64
	var walk func(nd *TreeNode) uint64
	walk = func(nd *TreeNode) uint64 {
		if nd.Left == nil {
			return 1 << nd.Rel
		}
		s := walk(nd.Left) | walk(nd.Right)
		out = append(out, s)
		return s
	}
	walk(t)
	return out, nil
}

// NaryPlan configures a tree execution: the join tree, per-side effort caps
// (0 = run the strategy to exhaustion) in the strategy's effort unit
// (documents retrieved for SC/FS, queries for AQG, selected by Kinds), and
// the per-intermediate-tuple merge cost TJ.
type NaryPlan struct {
	Tree  *TreeNode
	Caps  []int
	Kinds []retrieval.Kind
	TJ    float64
}

// NaryState is the observable progress of a tree execution: the MultiState
// counters plus the per-internal-node materialization counts and the
// cache-savings ledger.
type NaryState struct {
	*MultiState

	// NodeSets/NodeTuples describe the internal nodes of the join tree in
	// post-order (root last): NodeTuples[k] is the total tuple count
	// materialized at the node covering NodeSets[k]. The root entry always
	// equals GoodTuples+BadTuples.
	NodeSets   []uint64
	NodeTuples []int

	// MergeTime is the TJ·ΣNodeTuples portion of Time.
	MergeTime float64

	// CacheSaved is the extraction time per side that pipeline cache hits
	// made free; Time + ΣCacheSaved is invariant under cache warmth, exactly
	// as in the binary State.
	CacheSaved []float64

	Steps int
}

// NaryExec runs an n-ary Independent Join along a join tree.
type NaryExec struct {
	sides []*Side
	strat []retrieval.Strategy
	plan  NaryPlan
	prev  []retrieval.Counts
	ahead []int
	done  []bool
	st    *NaryState

	// Pipeline, when set, overlaps document extraction with the execution
	// exactly as in the binary executors: announced documents extract
	// speculatively on the worker pool, results resolve in stream order,
	// and the cache makes re-extraction free. Set before the first Step.
	Pipeline *shard.Group
}

// NewNaryExec builds a tree execution over sides. The plan's tree must
// cover every side exactly once; a nil tree defaults to the left-deep
// chain. Caps and Kinds, when present, must have one entry per side.
func NewNaryExec(sides []*Side, strats []retrieval.Strategy, plan NaryPlan) (*NaryExec, error) {
	n := len(sides)
	if n < 2 {
		return nil, fmt.Errorf("join: tree join needs at least 2 sides, got %d", n)
	}
	if len(strats) != n {
		return nil, fmt.Errorf("join: %d sides but %d strategies", n, len(strats))
	}
	if plan.Tree == nil {
		plan.Tree = LeafChain(n)
	}
	if plan.Caps != nil && len(plan.Caps) != n {
		return nil, fmt.Errorf("join: %d sides but %d effort caps", n, len(plan.Caps))
	}
	if plan.Kinds != nil && len(plan.Kinds) != n {
		return nil, fmt.Errorf("join: %d sides but %d strategy kinds", n, len(plan.Kinds))
	}
	nodeSets, err := plan.Tree.internalSets(n)
	if err != nil {
		return nil, err
	}
	mst := &MultiState{
		Rels:          make([]*relation.Extracted, n),
		DocsProcessed: make([]int, n),
		DocsRetrieved: make([]int, n),
		DocsFiltered:  make([]int, n),
		Queries:       make([]int, n),
	}
	for i, s := range sides {
		if err := s.validate(i + 1); err != nil {
			return nil, err
		}
		if strats[i] == nil {
			return nil, fmt.Errorf("join: side %d missing strategy", i+1)
		}
		schema := relation.Schema{Name: fmt.Sprintf("R%d", i+1)}
		if s.Gold != nil {
			schema = s.Gold.Schema
		}
		mst.Rels[i] = relation.NewExtracted(schema, s.Gold)
	}
	return &NaryExec{
		sides: sides,
		strat: strats,
		plan:  plan,
		prev:  make([]retrieval.Counts, n),
		ahead: make([]int, n),
		done:  make([]bool, n),
		st: &NaryState{
			MultiState: mst,
			NodeSets:   nodeSets,
			NodeTuples: make([]int, len(nodeSets)),
			CacheSaved: make([]float64, n),
		},
	}, nil
}

// State returns the live execution state.
func (e *NaryExec) State() *NaryState { return e.st }

// Algorithm names the executor.
func (e *NaryExec) Algorithm() string { return fmt.Sprintf("IDJN-tree-%dway", len(e.sides)) }

// capReached reports whether side i has spent its effort cap, measured in
// the unit the optimizer's model counts: queries for AQG, retrieved
// documents otherwise.
func (e *NaryExec) capReached(i int) bool {
	if e.plan.Caps == nil || e.plan.Caps[i] <= 0 {
		return false
	}
	c := e.strat[i].Counts()
	spent := c.Retrieved
	if e.plan.Kinds != nil && e.plan.Kinds[i] == retrieval.AQG {
		spent = c.Queries
	}
	return spent >= e.plan.Caps[i]
}

// addTuple charges the merge cost of one extracted occurrence at every
// internal tree node whose relation set contains side i — the tuple
// multiplies into Π_{j∈S\{i}} (gr_j(a)+br_j(a)) intermediate tuples at node
// S — and then folds the occurrence into the canonical n-way counters.
func (e *NaryExec) addTuple(i int, t relation.Tuple) {
	a := t.A1
	for k, set := range e.st.NodeSets {
		if set&(1<<i) == 0 {
			continue
		}
		delta := 1
		for m := set &^ (1 << i); m != 0; m &= m - 1 {
			j := bits.TrailingZeros64(m)
			delta *= e.st.Rels[j].GoodOcc(a) + e.st.Rels[j].BadOcc(a)
			if delta == 0 {
				break
			}
		}
		e.st.NodeTuples[k] += delta
		if e.plan.TJ > 0 {
			charge := e.plan.TJ * float64(delta)
			e.st.MergeTime += charge
			e.st.Time += charge
		}
	}
	e.st.MultiState.addTuple(i, t)
}

// Step retrieves and processes one document from every non-exhausted,
// uncapped side — the square traversal, restricted to the optimizer's
// effort caps. It returns false once every side is done.
func (e *NaryExec) Step() (bool, error) {
	e.st.Steps++
	announceStreams(e.Pipeline, e.sides, e.strat, e.done, e.ahead)
	any := false
	for i := range e.sides {
		if e.done[i] {
			continue
		}
		if e.capReached(i) {
			e.done[i] = true
			continue
		}
		id, ok := e.strat[i].Next()
		now := e.strat[i].Counts()
		e.charge(i, e.prev[i], now)
		e.prev[i] = now
		if !ok {
			e.done[i] = true
			continue
		}
		if e.ahead[i] > 0 {
			e.ahead[i]--
		}
		any = true
		s := e.sides[i]
		var tuples []relation.Tuple
		hit := false
		if e.Pipeline != nil {
			key := pipeline.Key{Side: i, DocID: id, Theta: s.Theta}
			tuples, hit, _ = e.Pipeline.Resolve(key, func() []relation.Tuple {
				return s.Table.Extract(id, s.Theta)
			})
		} else {
			tuples = s.Table.Extract(id, s.Theta)
		}
		e.st.DocsProcessed[i]++
		if hit {
			e.st.CacheSaved[i] += s.Costs.TE
		} else {
			e.st.Time += s.Costs.TE
		}
		for _, t := range tuples {
			e.addTuple(i, t)
		}
	}
	return any, nil
}

// charge folds a strategy's counter growth into the state.
func (e *NaryExec) charge(i int, prev, now retrieval.Counts) {
	c := e.sides[i].Costs
	dRetr := now.Retrieved - prev.Retrieved
	dFilt := now.Filtered - prev.Filtered
	dQ := now.Queries - prev.Queries
	e.st.DocsRetrieved[i] += dRetr
	e.st.DocsFiltered[i] += dFilt
	e.st.Queries[i] += dQ
	e.st.Time += float64(dRetr)*c.TR + float64(dFilt)*c.TF + float64(dQ)*c.TQ
}

// RunNary advances the executor until every side is exhausted or capped, or
// stop returns true.
func RunNary(e *NaryExec, stop func(*NaryState) bool) (*NaryState, error) {
	for {
		ok, err := e.Step()
		if err != nil {
			return e.st, err
		}
		if !ok {
			return e.st, nil
		}
		if stop != nil && stop(e.st) {
			return e.st, nil
		}
	}
}
