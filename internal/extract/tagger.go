// Package extract implements the information-extraction systems: a
// dictionary-based entity tagger and a Snowball-style pattern-vector
// extraction engine whose tuning knob θ is the minimum cosine similarity
// (minSim) between a candidate tuple's context and an extraction pattern —
// the same knob the paper tunes on Snowball (§VII). The patterns are the
// cue-term sets of the task vocabulary (NewSystemFromVocab).
//
// The engine is a real pipeline over raw text: sentence splitting, greedy
// longest-match entity tagging, bag-of-words context vectors, cosine scoring
// against pattern term vectors, and thresholded emission. Its per-occurrence
// behaviour is summarized, exactly as in the paper, by the true-positive
// rate tp(θ) and false-positive rate fp(θ) measured by this package.
package extract

import (
	"joinopt/internal/index"
	"joinopt/internal/textgen"
)

// Tagger recognizes gazetteer entities in token streams by greedy
// longest-match lookup.
type Tagger struct {
	// byFirst maps the first (lowercased) token of an entity name to the
	// candidate entries starting with it, longest first.
	byFirst map[string][]taggerEntry
}

type taggerEntry struct {
	tokens    []string
	canonical string
	etype     textgen.EntityType
}

// NewTagger builds a tagger over the gazetteer.
func NewTagger(g *textgen.Gazetteer) *Tagger {
	t := &Tagger{byFirst: map[string][]taggerEntry{}}
	add := func(names []string, et textgen.EntityType) {
		for _, name := range names {
			toks := index.Tokenize(name)
			if len(toks) == 0 {
				continue
			}
			t.byFirst[toks[0]] = append(t.byFirst[toks[0]], taggerEntry{tokens: toks, canonical: name, etype: et})
		}
	}
	add(g.Companies, textgen.Company)
	add(g.Persons, textgen.Person)
	add(g.Locations, textgen.Location)
	// Longest-first within each bucket so greedy matching prefers the most
	// specific entity ("Acme Dynamics 2" over "Acme Dynamics").
	for k := range t.byFirst {
		entries := t.byFirst[k]
		for i := 1; i < len(entries); i++ {
			for j := i; j > 0 && len(entries[j].tokens) > len(entries[j-1].tokens); j-- {
				entries[j], entries[j-1] = entries[j-1], entries[j]
			}
		}
	}
	return t
}

// Entity is a tagged entity occurrence within a sentence.
type Entity struct {
	Name  string // canonical gazetteer name
	Type  textgen.EntityType
	Start int // token offset
	End   int // exclusive token offset
}

// TagInto finds entity occurrences in tokens by greedy longest match and
// returns them in order along with a mask of the tokens covered by
// entities. It writes into ents and mask, which the caller owns and reuses
// across calls (either may be nil), so the per-sentence extraction loop does
// not allocate once warm (see Scan's scratch and the alloc guard).
func (t *Tagger) TagInto(tokens []string, ents []Entity, mask []bool) ([]Entity, []bool) {
	var covered []bool
	if cap(mask) >= len(tokens) {
		covered = mask[:len(tokens)]
		clear(covered)
	} else {
		covered = make([]bool, len(tokens))
	}
	out := ents[:0]
	for i := 0; i < len(tokens); {
		matched := false
		for _, e := range t.byFirst[tokens[i]] {
			n := len(e.tokens)
			if i+n > len(tokens) {
				continue
			}
			ok := true
			for j := 1; j < n; j++ {
				if tokens[i+j] != e.tokens[j] {
					ok = false
					break
				}
			}
			if ok {
				out = append(out, Entity{Name: e.canonical, Type: e.etype, Start: i, End: i + n})
				for j := i; j < i+n; j++ {
					covered[j] = true
				}
				i += n
				matched = true
				break
			}
		}
		if !matched {
			i++
		}
	}
	return out, covered
}
