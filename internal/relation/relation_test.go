package relation

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

func exampleGold(schema Schema) *Gold {
	g := NewGold(schema)
	return g
}

// figure2Golds builds the gold sets of the example of Figure 2 in the
// paper: R1 has good values {a, c} and bad values {b, d, e}; R2 has good
// values {a, b} and bad values {x, c, e}. The second attribute makes tuples
// distinct; goodness is driven by the A-value membership of the example.
// The join composition over it is pinned in internal/join.
func figure2Golds() (*Gold, *Gold) {
	g1 := exampleGold(Schema{Name: "R1", Attr1: "A", Attr2: "B"})
	g2 := exampleGold(Schema{Name: "R2", Attr1: "A", Attr2: "C"})
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
	return g1, g2
}

func TestFigure2Overlaps(t *testing.T) {
	g1, g2 := figure2Golds()
	o := Overlaps(g1, g2)
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
	d := NewDict(g, NewValues())
	r := NewExtracted(d)
	good := d.Entry(Tuple{A1: "ms", A2: "softricity"})
	if !good.Good {
		t.Error("good tuple misclassified")
	}
	if !r.Add(good) || r.Add(good) {
		t.Error("Add must report exactly the first occurrence of a tuple")
	}
	bad := d.Entry(Tuple{A1: "ms", A2: "symantec"})
	if bad.Good {
		t.Error("bad tuple misclassified")
	}
	r.Add(bad)
	gr, br := r.Occ(good.Value)
	if gr != 2 {
		t.Errorf("good occurrences of ms = %d, want 2", gr)
	}
	if br != 1 {
		t.Errorf("bad occurrences of ms = %d, want 1", br)
	}
	if n := len(r.Entries()); n != 2 || r.Distinct(good.Value) != 2 {
		t.Errorf("size %d, distinct tuples of ms %d, want 2 and 2", n, r.Distinct(good.Value))
	}
}

func TestNilGoldTreatsAllGood(t *testing.T) {
	d := NewDict(nil, NewValues())
	r := NewExtracted(d)
	e := d.Entry(Tuple{A1: "x", A2: "y"})
	if !e.Good {
		t.Error("nil gold should classify everything good")
	}
	r.Add(e)
	if good, bad := r.Occ(e.Value); good != 1 || bad != 0 {
		t.Errorf("got %d good / %d bad occurrences, want 1/0", good, bad)
	}
}

// TestJoinValuesDeterministicOrder: the join values a relation reports do
// not depend on the order in which the dictionary numbered them, so two
// relations filled in different orders report the same sorted values.
func TestJoinValuesDeterministicOrder(t *testing.T) {
	tuples := []Tuple{{A1: "z", A2: "1"}, {A1: "a", A2: "2"}, {A1: "m", A2: "3"}}
	for _, order := range [][]int{{0, 1, 2}, {2, 0, 1}} {
		d := NewDict(nil, NewValues())
		r := NewExtracted(d)
		for _, k := range order {
			d.Entry(tuples[k])
		}
		for _, tup := range tuples {
			r.Add(d.Entry(tup))
		}
		var vals []string
		names := r.Dict().Values().Names()
		for v, n := range r.Counts() {
			if n > 0 {
				vals = append(vals, names[v])
			}
		}
		slices.Sort(vals)
		if len(vals) != 3 || vals[0] != "a" || vals[1] != "m" || vals[2] != "z" {
			t.Errorf("numbering order %v: join values %v", order, vals)
		}
	}
}

// TestValueCountsMatchesOccurrences: Counts holds s(v) = gr(v) + br(v) per
// value ID, a value with good and bad occurrences counted once with their
// sum, and a value another relation numbered but this one never extracted
// counted zero.
func TestValueCountsMatchesOccurrences(t *testing.T) {
	s := Schema{Name: "Mergers", Attr1: "Company", Attr2: "MergedWith"}
	g := NewGold(s)
	g.AddGood(Tuple{A1: "Microsoft", A2: "Softricity"})
	values := NewValues()
	values.ID("Apple")
	d := NewDict(g, values)
	r := NewExtracted(d)
	for _, tup := range []Tuple{
		{A1: "Microsoft", A2: "Softricity"}, {A1: "Microsoft", A2: "Softricity"},
		{A1: "Microsoft", A2: "Symantec"}, {A1: "Oracle", A2: "Sun"},
	} {
		r.Add(d.Entry(tup))
	}
	want := map[string]int{"Apple": 0, "Microsoft": 3, "Oracle": 1}
	counts := r.Counts()
	if len(counts) != len(want) {
		t.Fatalf("Counts %v, want one per value of %v", counts, want)
	}
	for v, n := range want {
		id := values.ID(v)
		good, bad := r.Occ(id)
		if counts[id] != n || good+bad != n {
			t.Errorf("s(%s) = %d (gr+br %d), want %d", v, counts[id], good+bad, n)
		}
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

// TestJoinResultLabelStability: a tuple keeps one entry, and with it one
// label, however often and by whatever path it is numbered (a table row,
// a fault-truncated copy's extraction), so a join tuple's label — good iff
// both base tuples are — cannot change between observations.
func TestJoinResultLabelStability(t *testing.T) {
	g := NewGold(Schema{Name: "R", Attr1: "A", Attr2: "B"})
	g.AddGood(Tuple{A1: "a", A2: "b"})
	values := NewValues()
	d := NewDict(g, values)
	first := d.Entry(Tuple{A1: "a", A2: "b"})
	other := d.Entry(Tuple{A1: "a", A2: "c"})
	again := d.Entry(Tuple{A1: "a", A2: "b"})
	if again != first || !first.Good || other.Good {
		t.Errorf("entries %+v / %+v / %+v: want one good entry for <a, b> and a bad <a, c>", first, again, other)
	}
	if other.Value != first.Value || values.ID("a") != first.Value {
		t.Errorf("value IDs %d / %d / %d: want one ID for a", first.Value, other.Value, values.ID("a"))
	}
	if got := d.Entries(); len(got) != 2 || got[first.ID] != first || got[other.ID] != other {
		t.Errorf("dictionary entries %+v", got)
	}
}

func TestMultiOverlapsMatchesBinary(t *testing.T) {
	g1, g2 := figure2Golds()
	binary := Overlaps(g1, g2)
	multi := MultiOverlaps([]*Gold{g1, g2})
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

// TestDictConcurrentNumbering: goroutines numbering overlapping tuples in
// tables that share one value dictionary, as pipeline workers filling rows
// do, give every tuple one entry and every value one ID, both dense.
func TestDictConcurrentNumbering(t *testing.T) {
	values := NewValues()
	dicts := [2]*Dict{NewDict(nil, values), NewDict(nil, values)}
	const workers, tuples = 4, 300
	got := make([][tuples]Entry, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range tuples {
				k := (k + w*tuples/workers) % tuples
				got[w][k] = dicts[w%2].Entry(Tuple{A1: fmt.Sprintf("v%d", k%50), A2: fmt.Sprintf("s%d", k)})
			}
		}(w)
	}
	wg.Wait()
	for w := 2; w < workers; w++ {
		if got[w] != got[w%2] {
			t.Fatalf("worker %d numbered the tuples differently from worker %d", w, w%2)
		}
	}
	for side, d := range dicts {
		entries := d.Entries()
		if len(entries) != tuples {
			t.Fatalf("side %d: %d entries, want %d", side, len(entries), tuples)
		}
		for id, e := range entries {
			if int(e.ID) != id || values.Names()[e.Value] != e.Tuple.A1 {
				t.Fatalf("side %d: entry %d is %+v", side, id, e)
			}
		}
	}
	if n := len(values.Names()); n != 50 {
		t.Errorf("%d value IDs, want 50", n)
	}
}
