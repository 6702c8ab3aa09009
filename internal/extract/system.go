package extract

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"joinopt/internal/index"
	"joinopt/internal/relation"
	"joinopt/internal/textgen"
)

// Pattern is an extraction pattern: a term vector with uniform weights over
// one cue-term set of the task vocabulary. A candidate tuple's context is
// scored by cosine similarity against each pattern; the best score is
// compared to the minSim knob.
type Pattern struct {
	Terms []string

	norm float64
	set  map[string]bool
}

// NewPattern builds a pattern from cue terms.
func NewPattern(terms []string) Pattern {
	p := Pattern{Terms: terms, set: map[string]bool{}}
	for _, t := range terms {
		p.set[t] = true
	}
	p.norm = math.Sqrt(float64(len(p.set)))
	return p
}

// Score returns the cosine similarity between the pattern and a context
// bag-of-words with the given total token count.
func (p Pattern) Score(context map[string]int, contextLen int) float64 {
	if contextLen == 0 || p.norm == 0 {
		return 0
	}
	var dot float64
	var sq float64
	for term, c := range context {
		sq += float64(c) * float64(c)
		if p.set[term] {
			dot += float64(c)
		}
	}
	if dot == 0 {
		return 0
	}
	return dot / (p.norm * math.Sqrt(sq))
}

// Candidate is a scored candidate tuple found in a document.
type Candidate struct {
	Tuple relation.Tuple
	Score float64
}

// System is a configured IE system for one extraction task: E in the
// paper's notation. Its knob θ (minSim) is supplied per extraction call, so
// one System serves every knob configuration of a plan space. Executors
// read a database's documents through a Table over it (NewTable), which
// scans each document once for every θ.
type System struct {
	Task     string
	Slot1    textgen.EntityType
	Slot2    textgen.EntityType
	Patterns []Pattern

	tagger *Tagger

	extracts atomic.Int64
}

// Extracts returns the number of extraction calls made so far through
// Extract and every Table over the system — the real extractor
// invocations, counted whether or not a table row was already filled.
// Tests use it to assert that the pipelined extraction cache actually
// avoids work.
func (s *System) Extracts() int64 { return s.extracts.Load() }

// NewSystem builds an IE system with the given task slots and patterns over
// a tagger.
func NewSystem(task string, slot1, slot2 textgen.EntityType, patterns []Pattern, tagger *Tagger) (*System, error) {
	if len(patterns) == 0 {
		return nil, fmt.Errorf("extract: system %s needs at least one pattern", task)
	}
	if tagger == nil {
		return nil, fmt.Errorf("extract: system %s needs a tagger", task)
	}
	return &System{Task: task, Slot1: slot1, Slot2: slot2, Patterns: patterns, tagger: tagger}, nil
}

// NewSystemFromVocab builds an IE system directly from a task vocabulary,
// using the vocabulary's cue patterns as the extraction patterns — the
// configuration the standard workloads use.
func NewSystemFromVocab(v textgen.TaskVocab, tagger *Tagger) (*System, error) {
	patterns := make([]Pattern, len(v.Patterns))
	for i, terms := range v.Patterns {
		patterns[i] = NewPattern(terms)
	}
	return NewSystem(v.Task, v.Slot1, v.Slot2, patterns, tagger)
}

// scanScratch is the reusable working state of one extraction pass: token,
// entity, and mask buffers, the context map (cleared, not reallocated,
// between uses), and a per-scratch intern table for lowered token spans.
// Scratches cycle through a sync.Pool, so concurrent pipeline workers each
// hold their own and the per-sentence loop stays allocation-free once warm
// (the alloc-budget tests guard this).
type scanScratch struct {
	tokens   []string
	entities []Entity
	covered  []bool
	context  map[string]int
	interner index.Interner
}

var scratchPool = sync.Pool{New: func() any {
	return &scanScratch{
		context:  map[string]int{},
		interner: index.Interner{},
	}
}}

// Scan performs the sentence-level extraction pass and returns every
// candidate occurrence with its score, before thresholding and in sentence
// order. Rate measurement (MeasureRates) and the template verifier read
// these per-occurrence scores; Extract and Table apply the knob.
func (s *System) Scan(text string) []Candidate {
	sc := scratchPool.Get().(*scanScratch)
	defer scratchPool.Put(sc)
	var out []Candidate
	// Iterate the '.'-separated sentence segments in place rather than
	// materializing a [][]string for the whole document.
	for rest := text; rest != ""; {
		var seg string
		if i := strings.IndexByte(rest, '.'); i >= 0 {
			seg, rest = rest[:i], rest[i+1:]
		} else {
			seg, rest = rest, ""
		}
		sc.tokens = index.TokenizeInto(seg, sc.tokens[:0], sc.interner)
		if len(sc.tokens) == 0 {
			continue
		}
		sc.entities, sc.covered = s.tagger.TagInto(sc.tokens, sc.entities, sc.covered)
		pair, ok := s.slotPair(sc.entities)
		if !ok {
			continue
		}
		clear(sc.context)
		contextLen := 0
		for i, tok := range sc.tokens {
			if !sc.covered[i] {
				sc.context[tok]++
				contextLen++
			}
		}
		score := 0.0
		for _, p := range s.Patterns {
			if v := p.Score(sc.context, contextLen); v > score {
				score = v
			}
		}
		if score <= 0 {
			continue
		}
		out = append(out, Candidate{Tuple: pair, Score: score})
	}
	return out
}

// slotPair matches tagged entities to the task's slots: the first Slot1
// entity paired with the first distinct Slot2 entity following it (or
// anywhere in the sentence when none follows). Same-type tasks (e.g.
// Mergers' Company-Company) pair the first two distinct companies in order.
// It allocates nothing — the sentence hot path calls it per sentence.
func (s *System) slotPair(entities []Entity) (relation.Tuple, bool) {
	if s.Slot1 == s.Slot2 {
		var first, second string
		for _, e := range entities {
			if e.Type != s.Slot1 {
				continue
			}
			if first == "" {
				first = e.Name
			} else if e.Name != first {
				second = e.Name
				break
			}
		}
		if second == "" {
			return relation.Tuple{}, false
		}
		return relation.Tuple{A1: first, A2: second}, true
	}
	var first1, first2 string
	for _, e := range entities {
		if first1 == "" && e.Type == s.Slot1 {
			first1 = e.Name
		}
		if first2 == "" && e.Type == s.Slot2 {
			first2 = e.Name
		}
	}
	if first1 == "" || first2 == "" {
		return relation.Tuple{}, false
	}
	return relation.Tuple{A1: first1, A2: first2}, true
}

// Extract runs the system over text at knob configuration theta (minSim)
// and returns the emitted tuples, deduplicated, in deterministic order. It
// scans the text on every call: executors read a database's documents
// through a Table, which scans each document once.
func (s *System) Extract(text string, theta float64) []relation.Tuple {
	s.extracts.Add(1)
	return atLeast(distinct(s.Scan(text)), theta)
}

// distinct sorts cands by tuple and compacts them in place to one entry
// per tuple carrying its best score. A tuple is emitted at θ iff one of its
// occurrences scores at least θ, that is iff its best score does, so the
// knob becomes a filter over the distinct tuples.
func distinct(cands []Candidate) []Candidate {
	slices.SortFunc(cands, func(a, b Candidate) int {
		if c := strings.Compare(a.Tuple.A1, b.Tuple.A1); c != 0 {
			return c
		}
		return strings.Compare(a.Tuple.A2, b.Tuple.A2)
	})
	out := cands[:0]
	for _, c := range cands {
		if n := len(out); n > 0 && out[n-1].Tuple == c.Tuple {
			out[n-1].Score = max(out[n-1].Score, c.Score)
			continue
		}
		out = append(out, c)
	}
	return out
}

// atLeast returns the tuples of the distinct, sorted candidates that score
// at least theta, in one allocation (nil when none does).
func atLeast(cands []Candidate, theta float64) []relation.Tuple {
	n := 0
	for _, c := range cands {
		if c.Score >= theta {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]relation.Tuple, 0, n)
	for _, c := range cands {
		if c.Score >= theta {
			out = append(out, c.Tuple)
		}
	}
	return out
}
