package relation

// JoinTuple is one result of the natural join R1 ⋈ R2 on the shared join
// attribute: ⟨A, B, C⟩ where ⟨A, B⟩ ∈ R1 and ⟨A, C⟩ ∈ R2.
type JoinTuple struct {
	A string // join-attribute value
	B string // R1's second attribute
	C string // R2's second attribute
}

// LabeledJoinTuple pairs a join tuple with its good/bad label: a join tuple
// is good iff both contributing base tuples are good (§III-C, Figure 2);
// every other combination is bad.
type LabeledJoinTuple struct {
	Tuple JoinTuple
	Good  bool
}

// OverlapSets are the attribute-value overlap cardinalities of §V-A:
// Agg = |Ag1 ∩ Ag2|, Agb = |Ag1 ∩ Ab2|, Abg = |Ab1 ∩ Ag2|,
// Abb = |Ab1 ∩ Ab2|, where Agi/Abi are the sets of join-attribute values
// with good/bad occurrences in relation Ri.
type OverlapSets struct {
	Agg int
	Agb int
	Abg int
	Abb int
}

// GoldValueSets extracts, from a gold set, the join-attribute values with
// good occurrences (values appearing in some good tuple) and with bad
// occurrences (values appearing in some bad tuple). A value can be in both,
// like "Microsoft" in Figure 1 of the paper.
func GoldValueSets(g *Gold) (goodVals, badVals map[string]bool) {
	goodVals = map[string]bool{}
	badVals = map[string]bool{}
	for t := range g.Good {
		goodVals[t.A1] = true
	}
	for t := range g.Bad {
		badVals[t.A1] = true
	}
	return goodVals, badVals
}

// Overlaps computes the four overlap cardinalities between the gold value
// sets of two extraction tasks.
func Overlaps(g1, g2 *Gold) OverlapSets {
	good1, bad1 := GoldValueSets(g1)
	good2, bad2 := GoldValueSets(g2)
	var o OverlapSets
	for v := range good1 {
		if good2[v] {
			o.Agg++
		}
		if bad2[v] {
			o.Agb++
		}
	}
	for v := range bad1 {
		if good2[v] {
			o.Abg++
		}
		if bad2[v] {
			o.Abb++
		}
	}
	return o
}
