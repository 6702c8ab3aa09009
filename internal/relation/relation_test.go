package relation

import (
	"testing"
	"testing/quick"
)

func exampleGold(schema Schema) *Gold {
	g := NewGold(schema)
	return g
}

// figure2Relations builds the example of Figure 2 in the paper:
// R1 has good values {a, c} and bad values {b, d, e};
// R2 has good values {a, b} and bad values {x, c, e}.
// The composition yields |Tgood⋈| = 1 and |Tbad⋈| = 3.
func figure2Relations(t *testing.T) (*Extracted, *Extracted) {
	t.Helper()
	s1 := Schema{Name: "R1", Attr1: "A", Attr2: "B"}
	s2 := Schema{Name: "R2", Attr1: "A", Attr2: "C"}
	g1 := exampleGold(s1)
	g2 := exampleGold(s2)
	// Use the second attribute to make tuples distinct; goodness is driven
	// by the A-value membership of the paper's example.
	mk := func(a string) Tuple { return Tuple{A1: a, A2: "v-" + a} }
	for _, a := range []string{"a", "c"} {
		g1.AddGood(mk(a))
	}
	for _, a := range []string{"b", "d", "e"} {
		g1.AddBad(mk(a))
	}
	for _, a := range []string{"a", "b"} {
		g2.AddGood(mk(a))
	}
	for _, a := range []string{"x", "c", "e"} {
		g2.AddBad(mk(a))
	}
	r1 := NewExtracted(s1, g1)
	r2 := NewExtracted(s2, g2)
	for _, a := range []string{"a", "b", "c", "d", "e"} {
		r1.Add(mk(a))
	}
	for _, a := range []string{"a", "x", "b", "e", "c"} {
		r2.Add(mk(a))
	}
	return r1, r2
}

func TestFigure2JoinComposition(t *testing.T) {
	r1, r2 := figure2Relations(t)
	res := Join(r1, r2)
	good, bad := res.Counts()
	if good != 1 || bad != 3 {
		t.Errorf("Figure 2 composition: got good=%d bad=%d, want good=1 bad=3", good, bad)
	}
	if res.Size() != 4 {
		t.Errorf("join size %d, want 4 (values a, b, c, e)", res.Size())
	}
}

func TestFigure2Overlaps(t *testing.T) {
	r1, r2 := figure2Relations(t)
	o := Overlaps(r1.gold, r2.gold)
	want := OverlapSets{Agg: 1, Agb: 1, Abg: 1, Abb: 1}
	if o != want {
		t.Errorf("overlaps %+v, want %+v (Agg={a}, Agb={c}, Abg={b}, Abb={e})", o, want)
	}
}

func TestExtractedOccurrenceCounting(t *testing.T) {
	s := Schema{Name: "R", Attr1: "A", Attr2: "B"}
	g := NewGold(s)
	g.AddGood(Tuple{A1: "ms", A2: "softricity"})
	g.AddBad(Tuple{A1: "ms", A2: "symantec"})
	r := NewExtracted(s, g)
	if !r.Add(Tuple{A1: "ms", A2: "softricity"}) {
		t.Error("good tuple misclassified")
	}
	r.Add(Tuple{A1: "ms", A2: "softricity"})
	if r.Add(Tuple{A1: "ms", A2: "symantec"}) {
		t.Error("bad tuple misclassified")
	}
	if r.GoodOcc("ms") != 2 {
		t.Errorf("good occurrences of ms = %d, want 2", r.GoodOcc("ms"))
	}
	if r.BadOcc("ms") != 1 {
		t.Errorf("bad occurrences of ms = %d, want 1", r.BadOcc("ms"))
	}
	if r.Size() != 2 {
		t.Errorf("size %d, want 2", r.Size())
	}
}

func TestNilGoldTreatsAllGood(t *testing.T) {
	s := Schema{Name: "R", Attr1: "A", Attr2: "B"}
	r := NewExtracted(s, nil)
	if !r.Add(Tuple{A1: "x", A2: "y"}) {
		t.Error("nil gold should classify everything good")
	}
	if good, bad := r.GoodOcc("x"), r.BadOcc("x"); good != 1 || bad != 0 {
		t.Errorf("got %d good / %d bad occurrences, want 1/0", good, bad)
	}
}

func TestJoinGoodCountIsProductOfOccurrenceSets(t *testing.T) {
	// Property: with all tuples good and distinct second attributes, the
	// number of join tuples for a value a is n1(a)·n2(a) — the paper's
	// gr1(a)·gr2(a) composition (Equation 1).
	f := func(n1raw, n2raw uint8) bool {
		n1 := int(n1raw%6) + 1
		n2 := int(n2raw%6) + 1
		s1 := Schema{Name: "R1", Attr1: "A", Attr2: "B"}
		s2 := Schema{Name: "R2", Attr1: "A", Attr2: "C"}
		r1 := NewExtracted(s1, nil)
		r2 := NewExtracted(s2, nil)
		for i := 0; i < n1; i++ {
			r1.Add(Tuple{A1: "a", A2: string(rune('b' + i))})
		}
		for i := 0; i < n2; i++ {
			r2.Add(Tuple{A1: "a", A2: string(rune('p' + i))})
		}
		res := Join(r1, r2)
		good, bad := res.Counts()
		return good == n1*n2 && bad == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJoinNewIncrementalMatchesFullJoin(t *testing.T) {
	r1, r2 := figure2Relations(t)
	full := Join(r1, r2)

	// Rebuild r1 incrementally and check the accumulated result matches.
	acc := NewJoinResult()
	s1 := r1.Schema
	inc := NewExtracted(s1, r1.gold)
	for _, tup := range r1.Tuples() {
		inc.Add(tup)
		JoinNew(acc, inc, []Tuple{tup}, r2)
	}
	fg, fb := full.Counts()
	ag, ab := acc.Counts()
	if fg != ag || fb != ab {
		t.Errorf("incremental join good/bad = %d/%d, full = %d/%d", ag, ab, fg, fb)
	}
}

func TestJoinValuesDeterministicOrder(t *testing.T) {
	s := Schema{Name: "R", Attr1: "A", Attr2: "B"}
	r := NewExtracted(s, nil)
	r.Add(Tuple{A1: "z", A2: "1"})
	r.Add(Tuple{A1: "a", A2: "2"})
	r.Add(Tuple{A1: "m", A2: "3"})
	vals := r.JoinValues()
	if len(vals) != 3 || vals[0] != "a" || vals[1] != "m" || vals[2] != "z" {
		t.Errorf("JoinValues order %v", vals)
	}
}

func TestSchemaString(t *testing.T) {
	s := Schema{Name: "Executives", Attr1: "Company", Attr2: "CEO"}
	if s.String() != "Executives(Company, CEO)" {
		t.Errorf("got %q", s.String())
	}
}

func TestGoldValueSetsBothMembership(t *testing.T) {
	s := Schema{Name: "Mergers", Attr1: "Company", Attr2: "MergedWith"}
	g := NewGold(s)
	g.AddGood(Tuple{A1: "Microsoft", A2: "Softricity"})
	g.AddBad(Tuple{A1: "Microsoft", A2: "Symantec"})
	goodV, badV := GoldValueSets(g)
	if !goodV["Microsoft"] || !badV["Microsoft"] {
		t.Error("Microsoft should have both good and bad occurrences (Figure 1)")
	}
}

func TestJoinResultLabelStability(t *testing.T) {
	r := NewJoinResult()
	jt := JoinTuple{A: "a", B: "b", C: "c"}
	r.Add(jt, true)
	r.Add(jt, false)
	good, bad := r.Counts()
	if good != 0 || bad != 1 {
		t.Errorf("conflicting labels should resolve to bad, got good=%d bad=%d", good, bad)
	}
}

func TestMultiOverlapsMatchesBinary(t *testing.T) {
	r1, r2 := figure2Relations(t)
	binary := Overlaps(r1.gold, r2.gold)
	multi := MultiOverlaps([]*Gold{r1.gold, r2.gold})
	// Mask bit 0 = relation 1, bit 1 = relation 2; mask 0b11 = both good.
	if multi[0b11] != binary.Agg {
		t.Errorf("Agg %d vs %d", multi[0b11], binary.Agg)
	}
	if multi[0b01] != binary.Agb {
		t.Errorf("Agb %d vs %d", multi[0b01], binary.Agb)
	}
	if multi[0b10] != binary.Abg {
		t.Errorf("Abg %d vs %d", multi[0b10], binary.Abg)
	}
	if multi[0b00] != binary.Abb {
		t.Errorf("Abb %d vs %d", multi[0b00], binary.Abb)
	}
}

func TestMultiOverlapsThreeWay(t *testing.T) {
	mk := func(a string) Tuple { return Tuple{A1: a, A2: "x-" + a} }
	golds := make([]*Gold, 3)
	for i := range golds {
		golds[i] = NewGold(Schema{Name: "R", Attr1: "A", Attr2: "B"})
	}
	// Value "c" good everywhere; "m" good in 1 and 2, bad in 3;
	// "b" bad everywhere.
	for i := 0; i < 3; i++ {
		golds[i].AddGood(mk("c"))
		golds[i].AddBad(mk("b"))
	}
	golds[0].AddGood(mk("m"))
	golds[1].AddGood(mk("m"))
	golds[2].AddBad(mk("m"))
	classes := MultiOverlaps(golds)
	if classes[AllGood(3)] != 1 {
		t.Errorf("all-good class %d, want 1 (value c)", classes[AllGood(3)])
	}
	if classes[0b011] != 1 {
		t.Errorf("good-good-bad class %d, want 1 (value m)", classes[0b011])
	}
	if classes[0b000] != 1 {
		t.Errorf("all-bad class %d, want 1 (value b)", classes[0b000])
	}
}

func TestAllGoodMask(t *testing.T) {
	if AllGood(2) != 0b11 || AllGood(3) != 0b111 {
		t.Error("AllGood mask wrong")
	}
}
