package join

import (
	"fmt"
	"testing"
	"testing/quick"

	"joinopt/internal/corpus"
	"joinopt/internal/extract"
	"joinopt/internal/relation"
	"joinopt/internal/retrieval"
	"joinopt/internal/textgen"
)

// newTestState builds a State over synthetic gold sets where values
// "g0".."g4" are good on both sides and "b0".."b4" are bad on both sides,
// with the two sides' dictionaries.
func newTestState() (*State, [2]*relation.Dict) {
	mkGold := func(name string) *relation.Gold {
		g := relation.NewGold(relation.Schema{Name: name, Attr1: "A", Attr2: "B"})
		for i := 0; i < 5; i++ {
			for occ := 0; occ < 10; occ++ {
				g.AddGood(relation.Tuple{A1: fmt.Sprintf("g%d", i), A2: fmt.Sprintf("x%d", occ)})
				g.AddBad(relation.Tuple{A1: fmt.Sprintf("b%d", i), A2: fmt.Sprintf("y%d", occ)})
			}
		}
		return g
	}
	values := relation.NewValues()
	dicts := [2]*relation.Dict{relation.NewDict(mkGold("R1"), values), relation.NewDict(mkGold("R2"), values)}
	return newState(dicts[0], dicts[1]), dicts
}

// occ returns gr(a) and gr(a)+br(a) of the value named a in x.
func occ(x *relation.Extracted, values *relation.Values, a string) (good, total int) {
	g, b := x.Occ(values.ID(a))
	return g, g + b
}

// TestStatePairInvariant is the core accounting property: after any
// sequence of tuple additions, the incremental GoodPairs/BadPairs counters
// equal the direct per-value occurrence products.
func TestStatePairInvariant(t *testing.T) {
	f := func(ops []uint8) bool {
		st, dicts := newTestState()
		for k, op := range ops {
			side := int(op) & 1
			good := op&2 != 0
			val := int(op>>2) % 5
			prefix := "g"
			if !good {
				prefix = "b"
			}
			st.addTuple(side, dicts[side].Entry(relation.Tuple{
				A1: fmt.Sprintf("%s%d", prefix, val),
				A2: fmt.Sprintf("%s%d", map[bool]string{true: "x", false: "y"}[good], k%10),
			}))
		}
		good, total := 0, 0
		values := dicts[0].Values()
		for _, v := range values.Names() {
			g1, n1 := occ(st.R1, values, v)
			g2, n2 := occ(st.R2, values, v)
			good += g1 * g2
			total += n1 * n2
		}
		return st.GoodPairs == good && st.BadPairs == total-good
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestStateValueCountsLabelFree(t *testing.T) {
	st, dicts := newTestState()
	st.addTuple(0, dicts[0].Entry(relation.Tuple{A1: "g0", A2: "x0"}))
	st.addTuple(0, dicts[0].Entry(relation.Tuple{A1: "g0", A2: "x1"}))
	st.addTuple(0, dicts[0].Entry(relation.Tuple{A1: "b0", A2: "y0"}))
	values := dicts[0].Values()
	counts := st.R1.Counts()
	if counts[values.ID("g0")] != 2 || counts[values.ID("b0")] != 1 {
		t.Errorf("value counts %v", counts)
	}
	if len(st.R2.Counts()) != 0 {
		t.Error("side 2 should be empty")
	}
}

// TestFigure2JoinComposition runs the example of Figure 2 in the paper
// through the executors' composition: R1 has good values {a, c} and bad
// values {b, d, e}; R2 has good values {a, b} and bad values {x, c, e}.
// The composition yields |Tgood⋈| = 1 and |Tbad⋈| = 3.
func TestFigure2JoinComposition(t *testing.T) {
	mk := func(a string) relation.Tuple { return relation.Tuple{A1: a, A2: "v-" + a} }
	golds := [2]*relation.Gold{
		relation.NewGold(relation.Schema{Name: "R1", Attr1: "A", Attr2: "B"}),
		relation.NewGold(relation.Schema{Name: "R2", Attr1: "A", Attr2: "C"}),
	}
	for side, good := range [2][]string{{"a", "c"}, {"a", "b"}} {
		for _, a := range good {
			golds[side].AddGood(mk(a))
		}
	}
	values := relation.NewValues()
	d1, d2 := relation.NewDict(golds[0], values), relation.NewDict(golds[1], values)
	st := newState(d1, d2)
	for _, a := range []string{"a", "b", "c", "d", "e"} {
		st.addTuple(0, d1.Entry(mk(a)))
	}
	for _, a := range []string{"a", "x", "b", "e", "c"} {
		st.addTuple(1, d2.Entry(mk(a)))
	}
	good, bad := 0, 0
	for _, lt := range st.JoinTuples() {
		if lt.Good {
			good++
		} else {
			bad++
		}
	}
	if good != 1 || bad != 3 || st.GoodPairs != 1 || st.BadPairs != 3 {
		t.Errorf("Figure 2 composition: got good=%d bad=%d (pairs %d/%d), want good=1 bad=3",
			good, bad, st.GoodPairs, st.BadPairs)
	}
	if size := st.Snapshot().JoinSize; size != 4 {
		t.Errorf("join size %d, want 4 (values a, b, c, e)", size)
	}
}

// TestJoinGoodCountIsProductOfOccurrenceSets: with all tuples good and
// distinct second attributes, the number of join tuples for a value a is
// n1(a)·n2(a) — the paper's gr1(a)·gr2(a) composition (Equation 1).
func TestJoinGoodCountIsProductOfOccurrenceSets(t *testing.T) {
	f := func(n1raw, n2raw uint8) bool {
		n1 := int(n1raw%6) + 1
		n2 := int(n2raw%6) + 1
		values := relation.NewValues()
		d1, d2 := relation.NewDict(nil, values), relation.NewDict(nil, values)
		st := newState(d1, d2)
		for i := 0; i < n1; i++ {
			st.addTuple(0, d1.Entry(relation.Tuple{A1: "a", A2: string(rune('b' + i))}))
		}
		for i := 0; i < n2; i++ {
			st.addTuple(1, d2.Entry(relation.Tuple{A1: "a", A2: string(rune('p' + i))}))
		}
		good, bad := 0, 0
		for _, lt := range st.JoinTuples() {
			if lt.Good {
				good++
			} else {
				bad++
			}
		}
		return good == n1*n2 && bad == 0 && st.Snapshot().JoinSize == n1*n2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChargeStrategyDeltas(t *testing.T) {
	st, _ := newTestState()
	costs := Costs{TR: 1, TE: 5, TF: 0.5, TQ: 2}
	prev := retrieval.Counts{}
	now := retrieval.Counts{Retrieved: 10, Filtered: 4, Queries: 3}
	st.chargeStrategy(0, costs, prev, now)
	if st.DocsRetrieved[0] != 10 || st.DocsFiltered[0] != 4 || st.Queries[0] != 3 {
		t.Errorf("counters %d/%d/%d", st.DocsRetrieved[0], st.DocsFiltered[0], st.Queries[0])
	}
	wantTime := 10*1.0 + 4*0.5 + 3*2.0
	if st.Time != wantTime {
		t.Errorf("time %v, want %v", st.Time, wantTime)
	}
	// A second call charges only the delta.
	st.chargeStrategy(0, costs, now, retrieval.Counts{Retrieved: 12, Filtered: 4, Queries: 3})
	if st.DocsRetrieved[0] != 12 {
		t.Errorf("delta accounting broken: %d", st.DocsRetrieved[0])
	}
	if st.Time != wantTime+2 {
		t.Errorf("delta time %v", st.Time)
	}
}

func TestSideValidate(t *testing.T) {
	s := &Side{}
	if err := validateSides(s); err == nil {
		t.Error("empty side must fail validation")
	}
	db := &corpus.DB{Docs: []*corpus.Document{{ID: 0, Text: "nothing to extract here"}}}
	sys, err := extract.NewSystemFromVocab(textgen.VocabHQ, extract.NewTagger(textgen.NewGazetteer(10, 10, 10)))
	if err != nil {
		t.Fatal(err)
	}
	side := func(values *relation.Values) *Side { return &Side{DB: db, Table: sys.NewTable(db, values)} }
	shared := relation.NewValues()
	if err := validateSides(side(shared), side(shared)); err != nil {
		t.Errorf("sides sharing one value dictionary: %v", err)
	}
	if err := validateSides(side(shared), side(relation.NewValues())); err == nil {
		t.Error("sides numbering join values in different dictionaries must fail validation")
	}
}

func TestEmissionHistogramSums(t *testing.T) {
	st, _ := newTestState()
	// Simulate histogram updates as processDoc does.
	for _, k := range []int{0, 2, 1, 0, 3} {
		for len(st.EmissionHist[0]) <= k {
			st.EmissionHist[0] = append(st.EmissionHist[0], 0)
		}
		st.EmissionHist[0][k]++
	}
	total := 0
	for _, c := range st.EmissionHist[0] {
		total += c
	}
	if total != 5 {
		t.Errorf("histogram covers %d docs", total)
	}
	if st.EmissionHist[0][0] != 2 || st.EmissionHist[0][3] != 1 {
		t.Errorf("histogram %v", st.EmissionHist[0])
	}
}
