package extract

import (
	"fmt"
	"sort"

	"joinopt/internal/corpus"
)

// Rates characterizes an IE system's knob behaviour over a database
// (§III-A): for each knob setting θ, TP(θ) is the fraction of extractable
// good occurrences the system emits, and FP(θ) the fraction of extractable
// bad occurrences. "Extractable" means emitted under the most permissive
// configuration (θ → 0), matching the paper's "across all possible knob
// configurations" denominator.
type Rates struct {
	goodScores []float64 // sorted candidate scores of good occurrences
	badScores  []float64 // sorted candidate scores of bad occurrences
}

// MeasureRates runs the system over every document of db at the most
// permissive setting and records each gold-labelled candidate occurrence's
// score. The returned Rates answers TP/FP for any θ. Documents' gold
// mention annotations supply the labels, standing in for the paper's tuple
// verification step.
func MeasureRates(sys *System, db *corpus.DB) (*Rates, error) {
	gold := db.Gold(sys.Task)
	if gold == nil {
		return nil, fmt.Errorf("extract: database %s does not host task %s", db.Name, sys.Task)
	}
	r := &Rates{}
	for _, doc := range db.Docs {
		for _, c := range sys.Scan(doc.Text) {
			if !gold.Known(c.Tuple) {
				// Spurious candidate (e.g. a casual mention colliding with
				// relation context); count as a bad occurrence.
				r.badScores = append(r.badScores, c.Score)
				continue
			}
			if gold.IsGood(c.Tuple) {
				r.goodScores = append(r.goodScores, c.Score)
			} else {
				r.badScores = append(r.badScores, c.Score)
			}
		}
	}
	sort.Float64s(r.goodScores)
	sort.Float64s(r.badScores)
	return r, nil
}

// TP returns tp(θ): the per-occurrence probability that a good occurrence
// survives the knob.
func (r *Rates) TP(theta float64) float64 { return fracAtLeast(r.goodScores, theta) }

// FP returns fp(θ).
func (r *Rates) FP(theta float64) float64 { return fracAtLeast(r.badScores, theta) }

func fracAtLeast(sorted []float64, theta float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	// First index with score >= theta.
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := (lo + hi) / 2
		if sorted[mid] < theta {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return float64(len(sorted)-lo) / float64(len(sorted))
}
