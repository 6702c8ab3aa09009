// Package verify implements the tuple-verification substrate of the
// paper's evaluation (§VII): deciding whether an extracted tuple is good.
// The paper verifies output with "the template-based approach described in
// [14]" plus a web-based gold set; this package provides both analogs:
//
//   - GoldVerifier consults the generator's gold sets — exact labels, the
//     stand-in for the curated web gold set;
//   - TemplateVerifier re-examines the corpus contexts in which a tuple
//     occurs and accepts it only when enough occurrences match the
//     extraction templates strongly — verification by contextual
//     redundancy, with measurable (imperfect) accuracy.
package verify

import (
	"fmt"

	"joinopt/internal/corpus"
	"joinopt/internal/extract"
	"joinopt/internal/relation"
)

// Verifier decides whether an extracted tuple is good.
type Verifier interface {
	Verify(t relation.Tuple) bool
}

// GoldVerifier answers from a gold set.
type GoldVerifier struct {
	Gold *relation.Gold
}

// Verify implements Verifier.
func (g GoldVerifier) Verify(t relation.Tuple) bool { return g.Gold.IsGood(t) }

// TemplateVerifier accepts a tuple when at least MinStrong of its corpus
// occurrences score at least MinScore against the extraction patterns. All
// candidate occurrences are collected in one corpus pass at construction.
type TemplateVerifier struct {
	// MinScore is the context-similarity threshold counting an occurrence
	// as strong; MinStrong is the number of strong occurrences required.
	MinScore  float64
	MinStrong int

	scores map[relation.Tuple][]float64
}

// NewTemplateVerifier scans db with the extraction system (at the most
// permissive knob setting) and indexes every candidate tuple's occurrence
// scores. MinScore defaults to 0.6 and MinStrong to 1 when non-positive.
func NewTemplateVerifier(db *corpus.DB, sys *extract.System, minScore float64, minStrong int) (*TemplateVerifier, error) {
	if db == nil || sys == nil {
		return nil, fmt.Errorf("verify: need a database and an extraction system")
	}
	if minScore <= 0 {
		minScore = 0.6
	}
	if minStrong <= 0 {
		minStrong = 1
	}
	v := &TemplateVerifier{
		MinScore:  minScore,
		MinStrong: minStrong,
		scores:    map[relation.Tuple][]float64{},
	}
	for _, doc := range db.Docs {
		for _, c := range sys.Scan(doc.Text) {
			v.scores[c.Tuple] = append(v.scores[c.Tuple], c.Score)
		}
	}
	return v, nil
}

// Verify implements Verifier.
func (v *TemplateVerifier) Verify(t relation.Tuple) bool {
	strong := 0
	for _, s := range v.scores[t] {
		if s >= v.MinScore {
			strong++
			if strong >= v.MinStrong {
				return true
			}
		}
	}
	return false
}

// Occurrences returns the number of indexed candidate occurrences of t.
func (v *TemplateVerifier) Occurrences(t relation.Tuple) int { return len(v.scores[t]) }

// Accuracy measures a verifier against a gold set: the acceptance rate on
// the gold good tuples (recall of goodness) and the rejection rate on the
// gold bad tuples (specificity). Only tuples the verifier has evidence
// about are scored for TemplateVerifier-style verifiers when restrictToKnown
// is true.
func Accuracy(v Verifier, gold *relation.Gold) (acceptGood, rejectBad float64) {
	var ag, ng, rb, nb int
	for t := range gold.Good {
		ng++
		if v.Verify(t) {
			ag++
		}
	}
	for t := range gold.Bad {
		nb++
		if !v.Verify(t) {
			rb++
		}
	}
	if ng > 0 {
		acceptGood = float64(ag) / float64(ng)
	}
	if nb > 0 {
		rejectBad = float64(rb) / float64(nb)
	}
	return acceptGood, rejectBad
}
