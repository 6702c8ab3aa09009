// Package qxtract implements automatic query generation for the AQG
// retrieval strategy, in the spirit of the QXtract system the paper uses:
// keyword queries learned from a labelled training split that are expected
// to retrieve good documents for an extraction task.
//
// Terms are ranked by log-odds ratio between good and non-good training
// documents; queries are the top single terms and their pairwise
// conjunctions. Each learned query carries its training precision, and the
// execution-time statistics P(q) and g(q) on the target database are
// measured by Stats.
package qxtract

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"joinopt/internal/corpus"
	"joinopt/internal/index"
)

// Query is a learned keyword query with its training-split precision.
type Query struct {
	Terms        []string
	TrainPrec    float64 // fraction of matching training docs that are good
	TrainMatches int     // matching training docs
}

// IndexQuery converts to the search-interface query form.
func (q Query) IndexQuery() index.Query { return index.Query{Terms: q.Terms} }

// Learn derives up to maxQueries queries for task from the training
// database. Queries are ordered by expected usefulness (precision ×
// log-coverage on the training split).
func Learn(train *corpus.DB, task string, maxQueries int) ([]Query, error) {
	return LearnRows(index.NewTermRows(train.Texts()), train, task, maxQueries)
}

// LearnRows is Learn over the training database's term rows, so a caller
// that also trains a classifier on the split tokenizes it once.
func LearnRows(rows *index.TermRows, train *corpus.DB, task string, maxQueries int) ([]Query, error) {
	stats := train.Stats(task)
	if stats == nil {
		return nil, fmt.Errorf("qxtract: training database %s does not host task %s", train.Name, task)
	}
	if maxQueries <= 0 {
		return nil, fmt.Errorf("qxtract: maxQueries must be positive")
	}
	var nGood, nRest int
	countGood := make([]int, len(rows.Terms))
	countRest := make([]int, len(rows.Terms))
	for i, row := range rows.Rows {
		count := countRest
		if stats.Class[i] == corpus.Good {
			nGood++
			count = countGood
		} else {
			nRest++
		}
		for _, id := range row {
			count[id]++
		}
	}
	if nGood == 0 {
		return nil, fmt.Errorf("qxtract: no good documents in training database")
	}
	type scored struct {
		id    int32
		score float64
	}
	var ranked []scored
	for id, gc := range countGood {
		if gc == 0 {
			continue
		}
		pg := (float64(gc) + 1) / (float64(nGood) + 2)
		pr := (float64(countRest[id]) + 1) / (float64(nRest) + 2)
		ranked = append(ranked, scored{id: int32(id), score: math.Log(pg / pr)})
	}
	// Term IDs ascend in string order, so they break score ties by term.
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score > ranked[j].score
		}
		return ranked[i].id < ranked[j].id
	})
	top := ranked[:min(maxQueries, len(ranked))]

	evaluate := func(ids ...int32) Query {
		terms := make([]string, len(ids))
		for k, id := range ids {
			terms[k] = rows.Terms[id]
		}
		matches, good := 0, 0
	docs:
		for i, row := range rows.Rows {
			for _, id := range ids {
				if _, ok := slices.BinarySearch(row, id); !ok {
					continue docs
				}
			}
			matches++
			if stats.Class[i] == corpus.Good {
				good++
			}
		}
		prec := 0.0
		if matches > 0 {
			prec = float64(good) / float64(matches)
		}
		return Query{Terms: terms, TrainPrec: prec, TrainMatches: matches}
	}

	var out []Query
	for _, s := range top {
		out = append(out, evaluate(s.id))
	}
	// Pairwise conjunctions of the strongest terms sharpen precision.
	for i := 0; i < len(top) && len(out) < maxQueries*2; i++ {
		for j := i + 1; j < len(top) && len(out) < maxQueries*2; j++ {
			q := evaluate(top[i].id, top[j].id)
			if q.TrainMatches > 0 {
				out = append(out, q)
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		si := out[i].TrainPrec * math.Log(float64(out[i].TrainMatches)+1)
		sj := out[j].TrainPrec * math.Log(float64(out[j].TrainMatches)+1)
		return si > sj
	})
	if len(out) > maxQueries {
		out = out[:maxQueries]
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("qxtract: no usable queries learned")
	}
	return out, nil
}
