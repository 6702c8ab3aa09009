// Package relation defines the data model for relations extracted from text:
// binary tuples, good/bad classification against gold sets, the
// dictionaries that number tuples and join values for the execution layer,
// attribute-value occurrence accounting over those IDs (the Ag/Ab sets of
// the paper), value-overlap sets (Agg, Agb, Abg, Abb), and the join tuples
// with their good/bad output composition (§III-C of the paper).
package relation

import (
	"fmt"
	"slices"
	"sync"
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

// Entry is one distinct tuple as the execution layer counts it: numbered
// by its database's Dict and labelled against the database's gold set.
// IDs follow the order in which tuples and values are first numbered, which
// depends on plan order and worker timing, so IDs only index counters:
// nothing observable may depend on their values.
type Entry struct {
	Tuple Tuple
	ID    int32 // tuple ID, dense within the tuple's database
	Value int32 // join-value ID, dense within the workload
	Good  bool  // the tuple is good per the database's gold set
}

// Values numbers join-attribute values. One dictionary serves every
// database of a workload, so a value has one ID on every side of a join.
// It is safe for concurrent use.
type Values struct {
	mu    sync.Mutex
	ids   map[string]int32
	names []string
}

// NewValues returns an empty value dictionary.
func NewValues() *Values { return &Values{ids: map[string]int32{}} }

// ID returns a's ID, numbering a if it is new.
func (v *Values) ID(a string) int32 {
	v.mu.Lock()
	defer v.mu.Unlock()
	id, ok := v.ids[a]
	if !ok {
		id = int32(len(v.names))
		v.ids[a] = id
		v.names = append(v.names, a)
	}
	return id
}

// Names returns the values numbered so far, indexed by ID.
func (v *Values) Names() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	return slices.Clip(v.names)
}

// Dict numbers the distinct tuples of one database, numbers their join
// values in the workload's shared Values, and labels each tuple against the
// database's gold set; a nil gold set labels every tuple good (useful for
// unit tests of pure join mechanics). It is safe for concurrent use.
type Dict struct {
	values  *Values
	gold    *Gold
	mu      sync.Mutex
	ids     map[Tuple]int32
	entries []Entry
}

// NewDict returns an empty tuple dictionary labelling against gold.
func NewDict(gold *Gold, values *Values) *Dict {
	return &Dict{values: values, gold: gold, ids: map[Tuple]int32{}}
}

// Values returns the join-value dictionary the tuples' values are numbered in.
func (d *Dict) Values() *Values { return d.values }

// Entry returns t's entry, numbering t if it is new.
func (d *Dict) Entry(t Tuple) Entry {
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.ids[t]; ok {
		return d.entries[id]
	}
	e := Entry{Tuple: t, ID: int32(len(d.entries)), Value: d.values.ID(t.A1), Good: d.gold == nil || d.gold.IsGood(t)}
	d.ids[t] = e.ID
	d.entries = append(d.entries, e)
	return e
}

// Entries returns the entries numbered so far, indexed by tuple ID.
func (d *Dict) Entries() []Entry {
	d.mu.Lock()
	defer d.mu.Unlock()
	return slices.Clip(d.entries)
}

// Extracted is a relation instance built up during a join execution: the
// document occurrences of the entries an IE system has emitted so far,
// counted in slices indexed by the dictionary's IDs. Per join value it
// keeps gr(a) and br(a) in the paper's notation (the number of retrieved
// documents in which the value was observed in a good or a bad tuple) and
// its number of distinct tuples; per tuple, its occurrences.
type Extracted struct {
	dict   *Dict
	occ    []int         // tuple ID -> document occurrences
	values []valueCounts // value ID -> counts
}

// valueCounts are one join value's counters in an Extracted.
type valueCounts struct{ good, bad, distinct int }

// NewExtracted returns an empty extracted relation over dict's entries.
func NewExtracted(dict *Dict) *Extracted { return &Extracted{dict: dict} }

// Add records one document occurrence of e and reports whether it is the
// first occurrence of e's tuple.
func (x *Extracted) Add(e Entry) bool {
	x.occ = grow(x.occ, e.ID)
	x.values = grow(x.values, e.Value)
	c := &x.values[e.Value]
	if e.Good {
		c.good++
	} else {
		c.bad++
	}
	x.occ[e.ID]++
	if x.occ[e.ID] > 1 {
		return false
	}
	c.distinct++
	return true
}

// grow extends s with zero values until index id is in range.
func grow[T any](s []T, id int32) []T {
	if n := int(id) + 1; n > len(s) {
		s = slices.Grow(s, n-len(s))[:n]
	}
	return s
}

// Occ returns gr(v) and br(v): the good and bad occurrences of the join
// value with ID v observed so far.
func (x *Extracted) Occ(v int32) (good, bad int) {
	if int(v) >= len(x.values) {
		return 0, 0
	}
	return x.values[v].good, x.values[v].bad
}

// Distinct returns the number of distinct tuples with the join value of ID v.
func (x *Extracted) Distinct(v int32) int {
	if int(v) >= len(x.values) {
		return 0
	}
	return x.values[v].distinct
}

// Dict returns the dictionary the relation's entries are numbered in.
func (x *Extracted) Dict() *Dict { return x.dict }

// Entries returns the distinct tuples extracted so far, in tuple-ID order.
func (x *Extracted) Entries() []Entry {
	var out []Entry
	for _, e := range x.dict.Entries()[:len(x.occ)] {
		if x.occ[e.ID] > 0 {
			out = append(out, e)
		}
	}
	return out
}

// Counts returns s(v) = gr(v) + br(v) for every join-value ID v below the
// highest the relation has counted: the number of document occurrences of
// each value, zero for values it has not seen. The parameter estimator
// works from these label-free counts.
func (x *Extracted) Counts() []int {
	out := make([]int, len(x.values))
	for v, c := range x.values {
		out[v] = c.good + c.bad
	}
	return out
}
