// Package relation defines the data model for relations extracted from text:
// binary tuples, good/bad classification against gold sets, attribute-value
// occurrence accounting (the Ag/Ab sets of the paper), value-overlap sets
// (Agg, Agb, Abg, Abb), and the in-memory natural join with good/bad output
// composition (§III-C of the paper).
package relation

import (
	"fmt"
	"sort"
)

// Schema names a binary relation and its two attributes. The first attribute
// is conventionally the join attribute (e.g. Company) shared across
// extraction tasks.
type Schema struct {
	Name  string
	Attr1 string
	Attr2 string
}

// String renders the schema as Name⟨Attr1, Attr2⟩.
func (s Schema) String() string {
	return fmt.Sprintf("%s(%s, %s)", s.Name, s.Attr1, s.Attr2)
}

// Tuple is a binary extracted tuple. A1 holds the join-attribute value.
type Tuple struct {
	A1 string
	A2 string
}

// String renders the tuple as ⟨A1, A2⟩.
func (t Tuple) String() string { return fmt.Sprintf("<%s, %s>", t.A1, t.A2) }

// Gold is the ground truth for one extraction task over one database: the
// sets of good tuples (correct facts expressed in the database) and bad
// tuples (erroneous tuples the extraction system could produce from the
// database's deceptive contexts). The corpus generator retains Gold so that
// output tuples can be labelled exactly — the role tuple verification plays
// in the paper's evaluation (§VII).
type Gold struct {
	Schema Schema
	Good   map[Tuple]bool
	Bad    map[Tuple]bool
}

// NewGold returns an empty gold set for schema.
func NewGold(schema Schema) *Gold {
	return &Gold{Schema: schema, Good: map[Tuple]bool{}, Bad: map[Tuple]bool{}}
}

// AddGood registers t as a good tuple.
func (g *Gold) AddGood(t Tuple) { g.Good[t] = true }

// AddBad registers t as a bad tuple.
func (g *Gold) AddBad(t Tuple) { g.Bad[t] = true }

// IsGood reports whether t is a good tuple.
func (g *Gold) IsGood(t Tuple) bool { return g.Good[t] }

// Known reports whether t is a known (good or bad) tuple of this task.
func (g *Gold) Known(t Tuple) bool { return g.Good[t] || g.Bad[t] }

// Extracted is a relation instance built up during a join execution: the
// multiset of tuples an IE system has emitted so far, de-duplicated by tuple
// but with per-value occurrence counts retained (gri(a)/bri(a) in the
// paper's notation: the number of retrieved documents in which the value was
// observed).
type Extracted struct {
	Schema Schema
	gold   *Gold

	tuples map[Tuple]int // tuple -> number of document occurrences

	goodOcc map[string]int // join-attribute value -> good occurrences gr(a)
	badOcc  map[string]int // join-attribute value -> bad occurrences br(a)
}

// NewExtracted returns an empty extracted relation labelled against gold.
// gold may be nil, in which case all tuples are treated as good (useful for
// unit tests of pure join mechanics).
func NewExtracted(schema Schema, gold *Gold) *Extracted {
	return &Extracted{
		Schema:  schema,
		gold:    gold,
		tuples:  map[Tuple]int{},
		goodOcc: map[string]int{},
		badOcc:  map[string]int{},
	}
}

// Add records one document occurrence of tuple t. It reports whether the
// tuple is good per the gold set.
func (e *Extracted) Add(t Tuple) bool {
	e.tuples[t]++
	good := e.gold == nil || e.gold.IsGood(t)
	if good {
		e.goodOcc[t.A1]++
	} else {
		e.badOcc[t.A1]++
	}
	return good
}

// Size returns the number of distinct tuples.
func (e *Extracted) Size() int { return len(e.tuples) }

// Tuples returns the distinct tuples in deterministic order.
func (e *Extracted) Tuples() []Tuple {
	out := make([]Tuple, 0, len(e.tuples))
	for t := range e.tuples {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A1 != out[j].A1 {
			return out[i].A1 < out[j].A1
		}
		return out[i].A2 < out[j].A2
	})
	return out
}

// GoodOcc returns gr(a): the number of good occurrences of join-attribute
// value a observed so far.
func (e *Extracted) GoodOcc(a string) int { return e.goodOcc[a] }

// BadOcc returns br(a): the number of bad occurrences of join-attribute
// value a observed so far.
func (e *Extracted) BadOcc(a string) int { return e.badOcc[a] }

// ValueCounts returns s(a) = gr(a) + br(a), the number of document
// occurrences of every join-attribute value present, in one pass over the
// occurrence maps.
func (e *Extracted) ValueCounts() map[string]int {
	out := make(map[string]int, len(e.goodOcc)+len(e.badOcc))
	for a, n := range e.goodOcc {
		out[a] = n
	}
	for a, n := range e.badOcc {
		out[a] += n
	}
	return out
}

// JoinValues returns the distinct join-attribute values present, in
// deterministic order.
func (e *Extracted) JoinValues() []string {
	counts := e.ValueCounts()
	out := make([]string, 0, len(counts))
	for v := range counts {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}
