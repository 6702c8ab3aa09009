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

// Pattern is an extraction pattern: a term vector with uniform weights, as
// learned by Snowball-style bootstrapping. A candidate tuple's context is
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
// one System serves every knob configuration of a plan space.
type System struct {
	Task     string
	Slot1    textgen.EntityType
	Slot2    textgen.EntityType
	Patterns []Pattern

	tagger *Tagger

	extracts atomic.Int64

	cacheMu sync.RWMutex
	cache   map[string][]Candidate
}

// Extracts returns the number of Extract calls made so far — the real
// extractor invocations, counted regardless of the candidate cache. Tests
// use it to assert that the pipelined extraction cache actually avoids work.
func (s *System) Extracts() int64 { return s.extracts.Load() }

// EnableCache memoizes candidate extraction per document text. Tagging and
// scoring dominate extraction cost; plan sweeps that process the same
// documents under many knob settings reuse the scored candidates and apply
// only the threshold. The cache is guarded, so concurrent executions over
// the same System are safe.
func (s *System) EnableCache() {
	s.cacheMu.Lock()
	if s.cache == nil {
		s.cache = map[string][]Candidate{}
	}
	s.cacheMu.Unlock()
}

// ResetCache drops every memoized candidate entry but keeps the cache
// enabled. Benchmarks reset between iterations so each measures the full
// extraction pipeline rather than a map lookup.
func (s *System) ResetCache() {
	s.cacheMu.Lock()
	if s.cache != nil {
		s.cache = map[string][]Candidate{}
	}
	s.cacheMu.Unlock()
}

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

// Candidates scans text and returns every candidate tuple with its score,
// before thresholding. Extract applies the knob; rate measurement
// (MeasureRates) and the template verifier read the scores directly. The
// returned slice must not be modified when the cache is enabled.
func (s *System) Candidates(text string) []Candidate {
	s.cacheMu.RLock()
	cached := s.cache != nil
	if cached {
		if c, ok := s.cache[text]; ok {
			s.cacheMu.RUnlock()
			return c
		}
	}
	s.cacheMu.RUnlock()
	out := s.Scan(text)
	if cached {
		s.cacheMu.Lock()
		s.cache[text] = out
		s.cacheMu.Unlock()
	}
	return out
}

// scanScratch is the reusable working state of one extraction pass: token,
// entity, and mask buffers, the context and dedup maps (cleared, not
// reallocated, between uses), and a per-scratch intern table for lowered
// token spans. Scratches cycle through a sync.Pool, so concurrent pipeline
// workers each hold their own and the per-sentence loop stays allocation-free
// once warm (the alloc-budget tests guard this).
type scanScratch struct {
	tokens   []string
	entities []Entity
	covered  []bool
	context  map[string]int
	seen     map[relation.Tuple]bool
	interner index.Interner
}

var scratchPool = sync.Pool{New: func() any {
	return &scanScratch{
		context:  map[string]int{},
		seen:     map[relation.Tuple]bool{},
		interner: index.Interner{},
	}
}}

// Scan performs the actual sentence-level extraction pass, bypassing the
// candidate cache (perfbench's extract.scan timing measures the real
// pipeline with it).
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

// slotPairs matches tagged entities to the task's slots; it wraps slotPair
// for the cold callers (bootstrapping, training) that want a slice.
func (s *System) slotPairs(entities []Entity) []relation.Tuple {
	if pair, ok := s.slotPair(entities); ok {
		return []relation.Tuple{pair}
	}
	return nil
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
// and returns the emitted tuples, deduplicated, in deterministic order.
func (s *System) Extract(text string, theta float64) []relation.Tuple {
	s.extracts.Add(1)
	cands := s.Candidates(text)
	var out []relation.Tuple
	sc := scratchPool.Get().(*scanScratch)
	clear(sc.seen)
	for _, c := range cands {
		if c.Score >= theta && !sc.seen[c.Tuple] {
			sc.seen[c.Tuple] = true
			out = append(out, c.Tuple)
		}
	}
	scratchPool.Put(sc)
	// Tuples are distinct after the dedup, so any comparison sort yields the
	// same deterministic order; SortFunc avoids sort.Slice's interface and
	// closure allocations.
	slices.SortFunc(out, func(a, b relation.Tuple) int {
		if c := strings.Compare(a.A1, b.A1); c != 0 {
			return c
		}
		return strings.Compare(a.A2, b.A2)
	})
	return out
}
