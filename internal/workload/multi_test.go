package workload

import (
	"testing"

	"joinopt/internal/join"
	"joinopt/internal/model"
	"joinopt/internal/relation"
	"joinopt/internal/retrieval"
)

func triple(t *testing.T) *MultiWorkload {
	t.Helper()
	mw, err := Multi(Params{NumDocs: 900, Seed: 21}, []string{"HQ", "EX", "MG"})
	if err != nil {
		t.Fatal(err)
	}
	return mw
}

func TestMultiConstruction(t *testing.T) {
	mw := triple(t)
	if len(mw.DBs) != 3 || len(mw.Sys) != 3 {
		t.Fatalf("sides %d/%d", len(mw.DBs), len(mw.Sys))
	}
	classes := relation.MultiOverlaps(mw.Golds())
	allGood := relation.AllGood(3)
	if classes[allGood] == 0 {
		t.Error("no values good in all three relations — core layout broken")
	}
	// The core is present in every relation's good set.
	if classes[allGood] < 30 {
		t.Errorf("core overlap %d suspiciously small", classes[allGood])
	}
}

func TestMultiValidation(t *testing.T) {
	if _, err := Multi(Params{NumDocs: 900}, []string{"HQ"}); err == nil {
		t.Error("expected error for 1 task")
	}
	if _, err := Multi(Params{NumDocs: 900}, []string{"HQ", "XX"}); err == nil {
		t.Error("expected error for unknown task")
	}
	if _, err := Multi(Params{NumDocs: 900}, []string{"HQ", "EX", "MG", "HQ", "EX", "MG", "HQ"}); err == nil {
		t.Error("expected error past MaxRelations tasks")
	}
}

// Repeated tasks are allowed (each index gets its own corpus seed and
// private value ranges) — the k=4+ query workloads depend on it, since only
// three standard tasks exist.
func TestMultiRepeatedTasks(t *testing.T) {
	mw, err := Multi(Params{NumDocs: 500, Seed: 7}, []string{"HQ", "EX", "HQ", "MG"})
	if err != nil {
		t.Fatal(err)
	}
	if len(mw.DBs) != 4 {
		t.Fatalf("got %d databases, want 4", len(mw.DBs))
	}
	if mw.DBs[0].Name == mw.DBs[2].Name {
		t.Errorf("repeated task shares database name %q", mw.DBs[0].Name)
	}
	g0, _ := relation.GoldValueSets(mw.Golds()[0])
	g2, _ := relation.GoldValueSets(mw.Golds()[2])
	priv := 0
	for v := range g2 {
		if !g0[v] {
			priv++
		}
	}
	if priv == 0 {
		t.Error("repeated task has no private good values — relations are identical")
	}
	classes := relation.MultiOverlaps(mw.Golds())
	if classes[relation.AllGood(4)] == 0 {
		t.Error("no values good in all four relations — core layout broken")
	}
}

// naryIDJN runs the n-way Independent Join over every document of mw at
// θ=0.4: NaryExec at TJ=0 with a Scan on every side.
func naryIDJN(t *testing.T, mw *MultiWorkload) *join.NaryState {
	t.Helper()
	sides, strats := narySides(mw, 0.4)
	e, err := join.NewNaryExec(sides, strats, join.NaryPlan{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := join.RunNary(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestMultiIDJNExecution checks the n-way Independent Join's incremental
// output counters against a direct recomputation of Σ_a Π_i over the
// extracted relations.
func TestMultiIDJNExecution(t *testing.T) {
	mw := triple(t)
	st := naryIDJN(t, mw)
	for i := range mw.DBs {
		if st.DocsProcessed[i] != mw.DBs[i].Size() {
			t.Errorf("side %d processed %d docs", i, st.DocsProcessed[i])
		}
	}
	if st.GoodTuples == 0 {
		t.Error("no good 3-way tuples")
	}
	if st.BadTuples == 0 {
		t.Error("no bad 3-way tuples at theta 0.4")
	}
	// Direct recomputation of the n-way products.
	good, total := 0, 0
	for v := range mw.Tables[0].Dict().Values().Names() {
		g, tot := 1, 1
		for _, r := range st.Rels {
			gr, br := r.Occ(int32(v))
			g *= gr
			tot *= gr + br
		}
		good += g
		total += tot
	}
	if st.GoodTuples != good || st.BadTuples != total-good {
		t.Errorf("incremental counts (%d, %d) != direct (%d, %d)",
			st.GoodTuples, st.BadTuples, good, total-good)
	}
}

func TestMultiModelAccuracy(t *testing.T) {
	mw := triple(t)
	m := &model.MultiIDJNModel{Classes: relation.MultiOverlaps(mw.Golds())}
	for i := range mw.DBs {
		p, err := mw.trueParams(i, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		m.P = append(m.P, p)
		m.X = append(m.X, retrieval.SC)
	}
	st := naryIDJN(t, mw)
	D := mw.DBs[0].Size()
	est, err := m.Estimate([]int{D, D, D})
	if err != nil {
		t.Fatal(err)
	}
	ratioIn(t, "3-way good", est.Good, float64(st.GoodTuples), 0.4, 2.5)
	ratioIn(t, "3-way bad", est.Bad, float64(st.BadTuples), 0.4, 2.5)
	tm, err := m.Time([]int{D, D, D}, []join.Costs{mw.Costs[0], mw.Costs[1], mw.Costs[2]})
	if err != nil {
		t.Fatal(err)
	}
	if tm <= 0 {
		t.Error("no time predicted")
	}
}

// TestMultiIDJNValidation checks the n-way executor's constructor rejects
// a single side, a strategy count that does not match the sides, and a
// missing strategy.
func TestMultiIDJNValidation(t *testing.T) {
	mw := triple(t)
	if _, err := join.NewNaryExec([]*join.Side{mw.Side(0, 0.4)}, []retrieval.Strategy{mw.Scan(0)}, join.NaryPlan{}); err == nil {
		t.Error("expected error for 1 side")
	}
	if _, err := join.NewNaryExec(
		[]*join.Side{mw.Side(0, 0.4), mw.Side(1, 0.4)},
		[]retrieval.Strategy{mw.Scan(0)}, join.NaryPlan{}); err == nil {
		t.Error("expected error for arity mismatch")
	}
	if _, err := join.NewNaryExec(
		[]*join.Side{mw.Side(0, 0.4), mw.Side(1, 0.4)},
		[]retrieval.Strategy{mw.Scan(0), nil}, join.NaryPlan{}); err == nil {
		t.Error("expected error for nil strategy")
	}
}
